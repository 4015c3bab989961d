package session

import (
	"math"

	"distkcore/internal/graph"
)

// FNV-1a parameters, matching graph.Fingerprint and dist.GraphDelta.Digest
// so every digest in the protocol speaks the same hash family.
const (
	fnvOffset = uint64(1469598103934665603)
	fnvPrime  = uint64(1099511628211)
)

// ValuesDigest hashes a full value vector by exact float bit patterns (and
// its length): the session's pin for "we agree on every β_T(v)". The run
// protocol ships whole value vectors to verify bit-equality; the session
// seals each epoch with this digest instead, and P workers comparing it
// against their local oracles gives the same guarantee for 8 bytes. Each
// value's bits are mixed (graph.Mix64) before they are folded: under the
// exact-sum contract the low mantissa bits of β_T are zero, and a multiply
// only carries bits upward, so folded raw they would never reach the
// digest's low bits.
func ValuesDigest(b []float64) uint64 {
	h := fnvOffset
	h = (h ^ uint64(len(b))) * fnvPrime
	for _, x := range b {
		h = (h ^ graph.Mix64(math.Float64bits(x))) * fnvPrime
	}
	return h
}

// ChainNext folds one epoch's three state digests into the running chain:
// chain_e = H(chain_{e-1}, graphHash_e, partDigest_e, valuesDigest_e), with
// chain_{-1} = 0 so epoch 0 seals the initial run. Two sessions share a
// chain digest only if they agreed on every digest of every epoch in
// order — a worker that verifies the chain each epoch has verified the
// whole history, not just the present.
func ChainNext(prev, graphHash, partDigest, valuesDigest uint64) uint64 {
	h := fnvOffset
	for _, x := range [4]uint64{prev, graphHash, partDigest, valuesDigest} {
		h = (h ^ x) * fnvPrime
	}
	return h
}
