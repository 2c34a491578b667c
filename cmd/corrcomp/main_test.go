package main

import (
	"math"
	"strconv"
	"testing"
)

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // 0 means an error is expected
	}{
		{"1", 1},
		{"4096", 4096},
		{"3k", 3 << 10},
		{"3K", 3 << 10},
		{"5m", 5 << 20},
		{"5M", 5 << 20},
		{"2g", 2 << 30},
		{"2G", 2 << 30},
		{strconv.FormatInt(math.MaxInt64, 10), math.MaxInt64},
		{strconv.FormatInt(math.MaxInt64>>30, 10) + "g", (math.MaxInt64 >> 30) << 30},
		{"0", 0},
		{"0k", 0},
		{"-1", 0},
		{"-4m", 0},
		{"", 0},
		{"k", 0},
		{"12x", 0},
		{"1.5g", 0},
		{"lots", 0},
		{"9223372036854775808", 0}, // MaxInt64 + 1
		{"9000000000g", 0},
		{strconv.FormatInt(math.MaxInt64>>30+1, 10) + "g", 0},
		{strconv.FormatInt(math.MaxInt64>>20+1, 10) + "m", 0},
		{strconv.FormatInt(math.MaxInt64>>10+1, 10) + "k", 0},
	} {
		got, err := parseBytes(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseBytes(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}
