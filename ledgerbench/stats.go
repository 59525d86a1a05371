package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// series is a set of latency samples, kept in the unit it reports in.
// Safe for concurrent use: the feeder and the client goroutine of
// serve-durable record into shared series.
type series struct {
	mu sync.Mutex
	v  []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *series) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *series) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *series) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile (0..1) by linear interpolation
// between closest ranks; NaN when empty.
func (s *series) quantile(q float64) float64 { return quantile(s.values(), q) }

func (s *series) mean() float64 {
	v := s.values()
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }
