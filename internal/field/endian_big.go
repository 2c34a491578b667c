//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package field

// nativeLittleEndian is false on big-endian architectures, whose
// payload readers decode every value from its little-endian bytes.
const nativeLittleEndian = false
