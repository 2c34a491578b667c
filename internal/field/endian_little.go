//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package field

// nativeLittleEndian reports whether this architecture stores numbers
// little-endian, as field files do. The payload readers branch on it:
// when it holds, a payload's bytes are its values in memory order, so
// they are viewed in place instead of decoded byte by byte.
const nativeLittleEndian = true
