package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/service"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
)

// serviceLoad drives corrcompd's sync analyze endpoint: a server built
// by service.New(service.Config{}), served on a loopback listener, and a
// keep-alive HTTP client with one connection per client.
type serviceLoad struct {
	clients int
	query   string               // the URL query of every request
	opts    core.AnalysisOptions // what the service builds from query
	// payload makes the upload of op (c, i).
	payload func(c, i int) []byte
	// warm runs the warm-up ops of a set-up.
	warm func(l *serviceLoad) error
	// spanName names the replay span of kernel k on the given lane.
	spanName func(k stat.Kernel, f32 bool) string
	// period is the length of the request mix's cycle.
	period int

	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	// base is the server's counters after the warm-up ops.
	base service.StatsSnapshot
}

// envelope mirrors the JSON corrcompd answers a sync request with.
type envelope struct {
	Cached        bool    `json:"cached"`
	ElapsedMs     float64 `json:"elapsedMs"`
	PoolPeakBytes int64   `json:"poolPeakBytes"`
	Result        struct {
		Shape []int           `json:"shape"`
		Stats core.Statistics `json:"stats"`
	} `json:"result"`
}

func prepareAnalyzeCold(seed uint64, sz sizes, clients int) (load, error) {
	root := rootSeed(seed)
	base, err := baseFields(root, sz.coldEdge)
	if err != nil {
		return nil, err
	}
	l := &serviceLoad{
		clients: clients,
		opts:    core.AnalysisOptions{Window: core.DefaultWindow, VarianceFraction: svdstat.DefaultVarianceFraction},
		payload: func(c, i int) []byte {
			return encode64(combine(base, sz.coldEdge, opRand(root, c, i)))
		},
		spanName: func(k stat.Kernel, _ bool) string { return "stat." + k.Name() },
		period:   1,
	}
	// One op per client, on inputs no timed op sends.
	l.warm = func(l *serviceLoad) error {
		return forClients(l.clients, func(c int) error { return l.op(l.clients+c, 0, false).err })
	}
	return l, nil
}

// vfftMissEvery makes every fourth vfft-cache request a new field.
const vfftMissEvery = 4

func prepareVFFTCache(seed uint64, sz sizes, clients int) (load, error) {
	root := rootSeed(seed)
	base, err := baseFields(root, sz.vfftEdge)
	if err != nil {
		return nil, err
	}
	// lane encodes a field on the f64 lane for even k, f32 for odd k.
	lane := func(f *field.Field, k int) []byte {
		if k%2 == 0 {
			return encode64(f)
		}
		return encode32(f.Narrow())
	}
	const hotClient = -1 // the input stream the cached payloads come from
	hot := make([][]byte, sz.hot)
	for k := range hot {
		hot[k] = lane(combine(base, sz.vfftEdge, opRand(root, hotClient, k)), k)
	}
	l := &serviceLoad{
		clients: clients,
		query:   "vfft=true&stats=variogram",
		opts: core.AnalysisOptions{Window: core.DefaultWindow, VarianceFraction: svdstat.DefaultVarianceFraction,
			VariogramFFT: true, Stats: []string{"variogram"}},
		payload: func(c, i int) []byte {
			rng := opRand(root, c, i)
			if i%vfftMissEvery != vfftMissEvery-1 {
				return hot[rng.Intn(len(hot))]
			}
			// Misses alternate lanes, and the two clients start on
			// different lanes.
			return lane(combine(base, sz.vfftEdge, rng), i/vfftMissEvery+c)
		},
		spanName: func(k stat.Kernel, f32 bool) string {
			if f32 {
				return "stat." + k.Name() + ".f32"
			}
			return "stat." + k.Name() + ".f64"
		},
		period: 2 * vfftMissEvery, // a miss on each lane
	}
	// Cache every hot payload, then run one miss per client so both
	// lanes' transform plans and pools are warm.
	l.warm = func(l *serviceLoad) error {
		err := forClients(l.clients, func(c int) error {
			for k := c; k < len(hot); k += l.clients {
				if o := l.send(hot[k]); o.err != nil {
					return o.err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return forClients(l.clients, func(c int) error {
			return l.op(l.clients+c, vfftMissEvery-1, false).err
		})
	}
	return l, nil
}

// forClients runs fn once per client, concurrently, and returns the
// first error.
func forClients(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (l *serviceLoad) setUp() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	l.srv = service.New(service.Config{})
	l.hs = &http.Server{Handler: l.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	l.served = make(chan struct{})
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns ErrServerClosed once tearDown closes it
	}()
	l.url = "http://" + ln.Addr().String()
	l.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     l.clients,
		MaxIdleConnsPerHost: l.clients,
	}}
	resp, err := l.client.Get(l.url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	if err := l.warm(l); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	l.base = l.srv.Stats()
	return nil
}

func (l *serviceLoad) tearDown() {
	if l.srv == nil {
		return
	}
	l.client.CloseIdleConnections()
	l.hs.Close()
	<-l.served
	l.srv.Close()
	l.srv = nil
}

func (l *serviceLoad) op(c, i int, _ bool) outcome {
	o := l.send(l.payload(c, i))
	o.c, o.i = c, i
	return o
}

// send POSTs one upload and checks the answer.
func (l *serviceLoad) send(body []byte) outcome {
	var o outcome
	req, err := http.NewRequest(http.MethodPost, l.url+"/v1/analyze?"+l.query, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	o.start = time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(o.start)
	if err != nil {
		o.err = fmt.Errorf("reading response: %w", err)
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		o.err = fmt.Errorf("decoding response: %w", err)
		return o
	}
	o.stats, o.cached, o.execMs, o.poolPeak = env.Result.Stats, env.Cached, env.ElapsedMs, env.PoolPeakBytes
	o.err = checkStats(o.stats, outputKeys(selectedKernels(l.opts)))
	return o
}

// maxElements is the element budget the service derives from its body
// cap when it parses an upload.
func (l *serviceLoad) maxElements() int { return int(l.srv.Config().MaxBodyBytes / 8) }

func (l *serviceLoad) replay(t *tracer, root, opID int, o outcome) error {
	body := l.payload(o.c, o.i)
	if len(body) >= spoolMemLimit {
		if err := t.do(root, opID, "service.spool", func() error { return spool(body) }); err != nil {
			return err
		}
	}
	t.do(root, opID, "service.hash", func() error {
		sha256.Sum256(body)
		return nil
	})
	var wide *field.Field
	var narrow *field.Field32
	err := t.do(root, opID, "field.read", func() (err error) {
		wide, narrow, err = field.ReadAnyLimit(bytes.NewReader(body), l.maxElements())
		return err
	})
	if err != nil {
		return err
	}
	if !o.cached {
		src := stat.Source{F64: wide, F32: narrow}
		for _, k := range selectedKernels(l.opts) {
			if err := t.do(root, opID, l.spanName(k, narrow != nil), func() error {
				return runKernel(src, k, l.opts)
			}); err != nil {
				return err
			}
		}
	}
	var env envelope
	env.Cached, env.ElapsedMs, env.PoolPeakBytes = o.cached, o.execMs, o.poolPeak
	env.Result.Shape, env.Result.Stats = shapeOf(wide, narrow), o.stats
	return t.do(root, opID, "service.encode", func() error {
		_, err := json.Marshal(env)
		return err
	})
}

// spoolMemLimit is the size from which the service spools an upload to
// a temporary file before parsing it.
const spoolMemLimit = 1 << 20

// spool writes body to a temporary file and reads it back, as the
// service does with a large upload.
func spool(body []byte) error {
	f, err := os.CreateTemp("", "bench-spool-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = os.ReadFile(f.Name())
	return err
}

func shapeOf(wide *field.Field, narrow *field.Field32) []int {
	if narrow != nil {
		return narrow.Shape
	}
	return wide.Shape
}

func (l *serviceLoad) verify(o outcome) error {
	wide, narrow, err := field.ReadAnyLimit(bytes.NewReader(l.payload(o.c, o.i)), l.maxElements())
	if err != nil {
		return err
	}
	var want core.Statistics
	if narrow != nil {
		want, err = core.AnalyzeField32Ctx(context.Background(), narrow, l.opts)
	} else {
		want, err = core.AnalyzeFieldCtx(context.Background(), wide, l.opts)
	}
	if err != nil {
		return err
	}
	if !want.Equal(o.stats) {
		return fmt.Errorf("op (%d,%d): service answered %v, in-RAM analysis gives %v", o.c, o.i, o.stats, want)
	}
	return nil
}

func (l *serviceLoad) layers(ops []outcome) (map[string]float64, error) {
	var rt, exec, over []float64
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		r := float64(o.latency) / 1e6
		rt, exec, over = append(rt, r), append(exec, o.execMs), append(over, r-o.execMs)
	}
	now := l.srv.Stats()
	reqs := float64(len(ops))
	m := map[string]float64{
		"service.roundtrip_ms":    median(rt),
		"service.exec_ms":         median(exec),
		"service.overhead_ms":     median(over),
		"service.cache_hit_ratio": float64(now.CacheHits-l.base.CacheHits) / reqs,
		"service.runs_per_req":    float64(now.AnalyzeRuns-l.base.AnalyzeRuns) / reqs,
		"service.flights_joined":  float64(now.FlightsJoined - l.base.FlightsJoined),
		"service.rejected":        float64(now.JobsRejected - l.base.JobsRejected),
	}
	return m, nil
}

func (l *serviceLoad) cycle() int { return l.period }

func (l *serviceLoad) inputDigest(c, i int) [32]byte { return sha256.Sum256(l.payload(c, i)) }
