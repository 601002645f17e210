// Package quorum implements the write/read quorum systems that drive the
// paper's deterministic ratifier (§6).
//
// A scheme assigns every value v a write quorum W_v and read quorum R_v over
// a pool of binary registers such that
//
//	W_v ∩ R_u = ∅  if and only if  v = u     (condition of Theorem 8)
//
// so a process that has announced v (written W_v) is detected by any process
// reading R_u for u ≠ v, while a solo-value execution sees a clean read
// quorum and may decide.
//
// Three schemes from the paper are provided:
//
//   - Binary: 2 registers, W_v = {r_v}, R_v = {r_{¬v}} (§6.2 choice 1).
//   - Pool: the Bollobás-optimal scheme (§6.2 choice 2): a pool of k
//     registers with W_v a distinct ⌊k/2⌋-subset and R_v its complement.
//     Theorem 9 (Bollobás) shows m = C(k, ⌊k/2⌋) is the maximum number of
//     values any scheme with |W_v| + |R_v| = k can support, so the pool
//     size is lg m + Θ(log log m).
//   - BitVector: the simpler encoding (§6.2 choice 3): registers r[i][j]
//     for i < ⌈lg m⌉, j ∈ {0,1}; W_v = {r[i][v_i]}, R_v its complement.
//     2⌈lg m⌉ registers, within a constant of optimal.
package quorum

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Scheme maps values to write and read quorums over a register pool.
type Scheme interface {
	// M returns the number of supported values (inputs are 0..M-1).
	M() int
	// PoolSize returns the number of binary registers the scheme needs.
	PoolSize() int
	// WriteQuorum returns the pool indices of W_v.
	WriteQuorum(v value.Value) Set
	// ReadQuorum returns the pool indices of R_v.
	ReadQuorum(v value.Value) Set
	// Name identifies the scheme in reports.
	Name() string
}

// Set is a set of pool indices below 128, held as a bit mask. Quorums are
// Sets so that computing one allocates nothing, even through the Scheme
// interface, and takes memory independent of m; Pop and Indices visit the
// indices in ascending order, the order in which the ratifier touches its
// registers. Every scheme here fits: the pool scheme's sizes stay within
// Binomial's range (at most 61 registers), and the bit-vector scheme needs
// at most 2·63 for any int m.
type Set [2]uint64

// Add inserts index i (0 ≤ i < 128).
func (s *Set) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Len returns the number of indices in s.
func (s Set) Len() int { return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) }

// Intersects reports whether s and t share an index.
func (s Set) Intersects(t Set) bool { return s[0]&t[0] != 0 || s[1]&t[1] != 0 }

// Pop removes and returns the smallest index in s, or -1 if s is empty.
func (s *Set) Pop() int {
	for w := range s {
		if s[w] != 0 {
			i := bits.TrailingZeros64(s[w])
			s[w] &= s[w] - 1
			return 64*w + i
		}
	}
	return -1
}

// Indices returns the indices of s in ascending order, in a fresh slice.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Len())
	for i := s.Pop(); i >= 0; i = s.Pop() {
		out = append(out, i)
	}
	return out
}

// String formats s like its Indices slice, e.g. "[0 2 5]".
func (s Set) String() string { return fmt.Sprint(s.Indices()) }

// below returns the set {0, …, k-1}.
func below(k int) Set {
	var s Set
	for w := range s {
		if n := k - 64*w; n >= 64 {
			s[w] = ^uint64(0)
		} else if n > 0 {
			s[w] = 1<<n - 1
		}
	}
	return s
}

// without returns the indices of s not in t.
func (s Set) without(t Set) Set { return Set{s[0] &^ t[0], s[1] &^ t[1]} }

// Binomial returns C(n, k). It panics if the result would overflow uint64,
// which cannot happen for the pool sizes this module uses (n ≤ 64 with
// k ≤ n/2 stays within range for n ≤ 61; pools that large would support
// ~10¹⁷ values).
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi != 0 {
			panic(fmt.Sprintf("quorum: Binomial(%d,%d) overflows uint64", n, k))
		}
		c = lo / uint64(i+1)
	}
	return c
}

// MinPoolSize returns the smallest k with C(k, ⌊k/2⌋) ≥ m: the pool size of
// the optimal scheme for m values. It is lg m + Θ(log log m).
func MinPoolSize(m int) int {
	if m < 1 {
		panic(fmt.Sprintf("quorum: m=%d must be positive", m))
	}
	for k := 0; ; k++ {
		if Binomial(k, k/2) >= uint64(m) {
			return k
		}
	}
}

// checkValue validates an input of scheme s. The scheme's name is formatted
// only on the panic path, so the check costs no allocation per call.
func checkValue(v value.Value, s Scheme) int {
	if m := s.M(); v.IsNone() || v < 0 || int64(v) >= int64(m) {
		panic(fmt.Sprintf("quorum: value %s out of range [0,%d) for scheme %s", v, m, s.Name()))
	}
	return int(v)
}

// Binary is the 2-value scheme: W_0={0}, R_0={1}, W_1={1}, R_1={0}.
type Binary struct{}

// M implements Scheme.
func (Binary) M() int { return 2 }

// PoolSize implements Scheme.
func (Binary) PoolSize() int { return 2 }

// WriteQuorum implements Scheme: {v}.
func (b Binary) WriteQuorum(v value.Value) Set {
	return Set{1 << checkValue(v, b)}
}

// ReadQuorum implements Scheme: {1-v}.
func (b Binary) ReadQuorum(v value.Value) Set {
	return Set{1 << (1 - checkValue(v, b))}
}

// Name implements Scheme.
func (Binary) Name() string { return "binary" }

// Pool is the Bollobás-optimal scheme: value v's write quorum is the v-th
// t-subset (t = ⌊k/2⌋) of the k-register pool in colexicographic order, and
// its read quorum is the complement.
type Pool struct {
	k, t, m int
}

// NewPool returns the optimal scheme for m ≥ 1 values, using the smallest
// pool k with C(k, ⌊k/2⌋) ≥ m.
func NewPool(m int) *Pool {
	k := MinPoolSize(m)
	return &Pool{k: k, t: k / 2, m: m}
}

// M implements Scheme.
func (p *Pool) M() int { return p.m }

// PoolSize implements Scheme.
func (p *Pool) PoolSize() int { return p.k }

// WriteQuorum implements Scheme. It unranks v in the combinatorial number
// system: the colex rank of {c_1 < c_2 < … < c_t} is Σ C(c_i, i), so c_i
// is the largest c with C(c, i) ≤ what is left of the rank. The scan for
// each c_i steps C(c, i) up incrementally, one multiply and one exact
// divide per step.
func (p *Pool) WriteQuorum(v value.Value) Set {
	rank := uint64(checkValue(v, p))
	var s Set
	for i := p.t; i >= 1; i-- {
		// cur = C(c, i), next = C(c+1, i), from c = i-1: C(i-1, i) = 0 ≤ rank.
		c, cur, next := i-1, uint64(0), uint64(1)
		for next <= rank {
			c, cur = c+1, next
			hi, lo := bits.Mul64(next, uint64(c+1))
			next, _ = bits.Div64(hi, lo, uint64(c+1-i))
		}
		s.Add(c)
		rank -= cur
	}
	return s
}

// ReadQuorum implements Scheme: the complement of the write quorum.
func (p *Pool) ReadQuorum(v value.Value) Set {
	return below(p.k).without(p.WriteQuorum(v))
}

// Name implements Scheme.
func (p *Pool) Name() string { return fmt.Sprintf("pool(k=%d)", p.k) }

// BitVector is the bit-encoding scheme: register index 2i+j stands for
// "bit i of the announced value is j".
type BitVector struct {
	bitsN, m int
}

// NewBitVector returns the bit-vector scheme for m ≥ 2 values.
func NewBitVector(m int) *BitVector {
	if m < 2 {
		panic(fmt.Sprintf("quorum: BitVector needs m ≥ 2, got %d", m))
	}
	b := bits.Len(uint(m - 1)) // ⌈lg m⌉
	return &BitVector{bitsN: b, m: m}
}

// M implements Scheme.
func (s *BitVector) M() int { return s.m }

// PoolSize implements Scheme.
func (s *BitVector) PoolSize() int { return 2 * s.bitsN }

// WriteQuorum implements Scheme: register 2i + (bit i of v) for each i.
func (s *BitVector) WriteQuorum(v value.Value) Set {
	x := checkValue(v, s)
	var w Set
	for i := 0; i < s.bitsN; i++ {
		w.Add(2*i + (x>>i)&1)
	}
	return w
}

// ReadQuorum implements Scheme: the complement of the write quorum.
func (s *BitVector) ReadQuorum(v value.Value) Set {
	return below(2 * s.bitsN).without(s.WriteQuorum(v))
}

// Name implements Scheme.
func (s *BitVector) Name() string { return fmt.Sprintf("bitvector(b=%d)", s.bitsN) }

// Verify checks the Theorem 8 condition W_v ∩ R_u = ∅ ⇔ v = u for every
// pair of values, plus basic sanity (indices inside the pool). Cost O(m²·q); call it in tests and at tool startup, not in
// protocols. For very large m use VerifySample.
func Verify(s Scheme) error {
	m := s.M()
	writes, err := checkAndIndex(s)
	if err != nil {
		return err
	}
	for v := 0; v < m; v++ {
		for u := 0; u < m; u++ {
			if err := checkPair(s, writes[v], v, u); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifySample checks every diagonal pair (v, v) plus `pairs` random
// off-diagonal pairs — the only tractable verification for schemes with
// hundreds of thousands of values. A deterministic seed makes reported
// results reproducible.
func VerifySample(s Scheme, pairs int, seed uint64) error {
	m := s.M()
	writes, err := checkAndIndex(s)
	if err != nil {
		return err
	}
	for v := 0; v < m; v++ {
		if err := checkPair(s, writes[v], v, v); err != nil {
			return err
		}
	}
	src := xrand.New(seed)
	for i := 0; i < pairs; i++ {
		v, u := src.Intn(m), src.Intn(m)
		if err := checkPair(s, writes[v], v, u); err != nil {
			return err
		}
	}
	return nil
}

// checkAndIndex validates quorum shapes and returns the per-value write
// quorums.
func checkAndIndex(s Scheme) ([]Set, error) {
	m := s.M()
	pool := below(s.PoolSize())
	writes := make([]Set, m)
	for v := 0; v < m; v++ {
		w := s.WriteQuorum(value.Value(v))
		for _, q := range []Set{w, s.ReadQuorum(value.Value(v))} {
			if out := q.without(pool); out != (Set{}) {
				return nil, fmt.Errorf("quorum %s: value %d index %d out of pool [0,%d)", s.Name(), v, out.Pop(), s.PoolSize())
			}
		}
		writes[v] = w
	}
	return writes, nil
}

// checkPair verifies W_v ∩ R_u = ∅ ⇔ v = u for one pair.
func checkPair(s Scheme, wv Set, v, u int) error {
	meet := wv.Intersects(s.ReadQuorum(value.Value(u)))
	if (v == u) == meet {
		rel := "misses"
		if meet {
			rel = "intersects"
		}
		return fmt.Errorf("quorum %s: W_%d %s R_%d", s.Name(), v, rel, u)
	}
	return nil
}

// BollobasSum evaluates the left-hand side of Theorem 9 (Bollobás's
// inequality) for a scheme: Σ_v 1/C(|W_v|+|R_v|, |W_v|) ≤ 1 must hold for
// any valid cross-intersecting family, with equality exactly for the
// optimal pool scheme.
func BollobasSum(s Scheme) float64 {
	sum := 0.0
	for v := 0; v < s.M(); v++ {
		a := s.WriteQuorum(value.Value(v)).Len()
		b := s.ReadQuorum(value.Value(v)).Len()
		sum += 1 / float64(Binomial(a+b, a))
	}
	return sum
}

// SpaceTable reports, for a given m, the register counts of each scheme
// including the proposal register, alongside the paper's formulas. Used by
// cmd/quorumgen and experiment E4.
type SpaceRow struct {
	M                int
	PoolRegisters    int // optimal scheme, incl. proposal
	BitVecRegisters  int // bit-vector scheme, incl. proposal
	PaperPoolBound   int // lg m + O(log log m) realized: MinPoolSize(m)+1
	PaperBitVecExact int // 2⌈lg m⌉ + 1
}

// Space computes the SpaceRow for m values.
func Space(m int) SpaceRow {
	bitsN := int(math.Ceil(math.Log2(float64(m))))
	if m == 1 {
		bitsN = 0
	}
	return SpaceRow{
		M:                m,
		PoolRegisters:    NewPool(m).PoolSize() + 1,
		BitVecRegisters:  NewBitVector(max2(m, 2)).PoolSize() + 1,
		PaperPoolBound:   MinPoolSize(m) + 1,
		PaperBitVecExact: 2*bitsN + 1,
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
