package vfg

// Fingerprint is one function's body and environment hash.
type Fingerprint struct{ Body, Env uint64 }

// Fingerprints fingerprints every defined function of cfg's module as an
// incremental run does.
func Fingerprints(cfg *Config) map[string]Fingerprint {
	out := make(map[string]Fingerprint)
	for name, fp := range computeFingerprints(cfg) {
		out[name] = Fingerprint{fp.body, fp.env}
	}
	return out
}
