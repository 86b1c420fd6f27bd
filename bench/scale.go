package main

import (
	"time"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// scaleSystems is how many 130-TU systems a seed generates. Operations
// rotate over them: one generated system's cold time moves by about 12%
// from seed to seed, and rotating over sixteen averages that down to
// about 3%.
const scaleSystems = 16

// scale analyzes 130-TU systems in process with default options. Each
// pair of operations is a cold analysis under a new nonce and a
// memory-warm repeat of the same sources.
type scale struct {
	*env
	systems []system
	refs    [][]byte
}

func (s *scale) setup() error {
	s.systems, s.refs = nil, nil
	r := s.rng()
	for i := 0; i < scaleSystems; i++ {
		sys := split(corpus.Generate(r.Int63(), scaleConfig))
		cold := sys.withNonce(s.nonce())
		rep, err := safeflow.Analyze(cold.name, cold.sources, cold.cFiles, safeflow.Options{})
		if err != nil {
			return err
		}
		if err := sys.checkKill(rep); err != nil {
			return err
		}
		s.systems = append(s.systems, sys)
		s.refs = append(s.refs, renderJSON(rep))
	}
	return nil
}

func (s *scale) measure(until time.Time, rec *recorder) {
	for i := 0; time.Now().Before(until); i++ {
		k := i % len(s.systems)
		sys := s.systems[k].withNonce(s.nonce())
		for _, cold := range []bool{true, false} {
			t0 := time.Now()
			rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
			d := time.Since(t0)
			if err == nil {
				err = sameBytes(sys.name, renderJSON(rep), s.refs[k])
			}
			rec.add(cold, d, err)
		}
	}
}

func (s *scale) trace(until time.Time, lr *layerRun) {
	half := time.Now().Add(time.Until(until) / 2)
	i := 0
	for ; time.Now().Before(half); i++ {
		k := i % len(s.systems)
		lr.layerOp(s.systems[k].withNonce(s.nonce()), s.refs[k])
	}
	tc, dir, err := openTimedCache(s.env)
	if !lr.check(err) {
		return
	}
	defer removeAll(dir)
	m0 := readMem()
	for ; time.Now().Before(until); i++ {
		k := i % len(s.systems)
		sys := s.systems[k].withNonce(s.nonce())
		lr.analyze(sys, s.refs[k], safeflow.Options{DiskCache: tc})
		lr.analyze(sys, s.refs[k], safeflow.Options{DiskCache: tc})
	}
	lr.tier.addMem(readMem().sub(m0), lr.tier.ops)
	lr.tier.addDisk(tc.counters(), lr.tier.ops)
}

func (s *scale) digest() string { return digestSystems(s.systems) }

func (s *scale) close() {}
