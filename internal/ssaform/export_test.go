package ssaform

import (
	"crypto/sha256"
	"fmt"

	"vrp/internal/ir"
)

// FuncFingerprint hashes one function as the IR stability gate does,
// for the package's external tests.
func FuncFingerprint(f *ir.Func) string {
	h := sha256.New()
	fingerprintFunc(h, f)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// FingerprintPrograms lists the names and sources of the programs the
// IR stability gate covers.
func FingerprintPrograms() (names, srcs []string) {
	for _, p := range fingerprintPrograms() {
		names, srcs = append(names, p.name), append(srcs, p.src)
	}
	return names, srcs
}
