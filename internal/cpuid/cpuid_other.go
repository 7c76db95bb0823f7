//go:build !amd64 || purego

package cpuid

const avx2, gfni, avx512f = false, false, false
