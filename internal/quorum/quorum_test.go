package quorum

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/modular-consensus/modcon/internal/value"
)

func TestBinomialSmallValues(t *testing.T) {
	tests := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {5, 2, 10},
		{10, 5, 252}, {20, 10, 184756}, {3, 5, 0}, {5, -1, 0},
		{60, 30, 118264581564861424},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestMinPoolSize(t *testing.T) {
	tests := []struct {
		m, want int
	}{
		{1, 0},     // C(0,0)=1
		{2, 2},     // C(2,1)=2
		{3, 3},     // C(3,1)=3
		{4, 4},     // C(4,2)=6 ≥ 4
		{6, 4},     // exactly 6
		{7, 5},     // C(5,2)=10
		{100, 9},   // C(9,4)=126
		{1000, 13}, // C(13,6)=1716 ≥ 1000; C(12,6)=924 < 1000
	}
	for _, tt := range tests {
		if got := MinPoolSize(tt.m); got != tt.want {
			t.Errorf("MinPoolSize(%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestMinPoolSizeIsLgMPlusLogLog(t *testing.T) {
	// Theorem 10: pool size is lg m + Θ(log log m). Verify k - lg m grows
	// slower than, say, 2 log₂ log₂ m + 4 across a wide range.
	for _, m := range []int{2, 8, 64, 1024, 1 << 16, 1 << 24} {
		k := MinPoolSize(m)
		lg := math.Log2(float64(m))
		slack := float64(k) - lg
		bound := 2*math.Log2(math.Log2(float64(m))+1) + 4
		if slack < 0 || slack > bound {
			t.Errorf("m=%d: k=%d, lg m=%.1f, slack %.1f outside [0, %.1f]", m, k, lg, slack, bound)
		}
	}
}

func TestVerifyAllSchemes(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 6, 7, 8, 16, 33, 100} {
		schemes := []Scheme{NewPool(m), NewBitVector(m)}
		if m == 2 {
			schemes = append(schemes, Binary{})
		}
		for _, s := range schemes {
			if err := Verify(s); err != nil {
				t.Errorf("m=%d: %v", m, err)
			}
		}
	}
}

func TestPoolQuorumsAreDistinctSubsets(t *testing.T) {
	p := NewPool(20) // k=6, C(6,3)=20
	seen := make(map[string]bool)
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v)).Indices()
		if len(w) != p.PoolSize()/2 {
			t.Fatalf("value %d: |W| = %d, want %d", v, len(w), p.PoolSize()/2)
		}
		key := ""
		for _, i := range w {
			key += string(rune('a' + i))
		}
		if seen[key] {
			t.Fatalf("duplicate write quorum for value %d: %v", v, w)
		}
		seen[key] = true
	}
}

func TestPoolReadIsComplement(t *testing.T) {
	p := NewPool(35) // k=7, t=3, C(7,3)=35
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v)).Indices()
		r := p.ReadQuorum(value.Value(v)).Indices()
		if len(w)+len(r) != p.PoolSize() {
			t.Fatalf("value %d: |W|+|R| = %d+%d != k=%d", v, len(w), len(r), p.PoolSize())
		}
		all := make(map[int]bool)
		for _, i := range append(append([]int{}, w...), r...) {
			if all[i] {
				t.Fatalf("value %d: W and R overlap at %d", v, i)
			}
			all[i] = true
		}
	}
}

func TestPoolColexOrderProperty(t *testing.T) {
	// Unranking must be injective and rank-monotone in colex order: the
	// reversed quorum (largest element first) must increase lexicographically
	// with v.
	p := NewPool(70) // k=8, t=4, C(8,4)=70
	prev := []int(nil)
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v)).Indices()
		if prev != nil && !colexLess(prev, w) {
			t.Fatalf("colex order violated between %v and %v", prev, w)
		}
		prev = w
	}
}

func colexLess(a, b []int) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestBitVectorShape(t *testing.T) {
	s := NewBitVector(5) // 3 bits
	if s.PoolSize() != 6 {
		t.Fatalf("PoolSize = %d, want 6", s.PoolSize())
	}
	// Value 5 = 101b: bits (1,0,1) -> registers {2*0+1, 2*1+0, 2*2+1}.
	w := s.WriteQuorum(4).Indices() // 100b -> {0, 2, 5}
	want := []int{0, 2, 5}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("WriteQuorum(4) = %v, want %v", w, want)
		}
	}
	r := s.ReadQuorum(4).Indices() // complement positions {1, 3, 4}
	wantR := []int{1, 3, 4}
	for i := range wantR {
		if r[i] != wantR[i] {
			t.Fatalf("ReadQuorum(4) = %v, want %v", r, wantR)
		}
	}
}

func TestBitVectorSpaceMatchesPaper(t *testing.T) {
	// Exactly 2⌈lg m⌉ + 1 registers including the proposal.
	for _, m := range []int{2, 3, 4, 5, 8, 9, 1024, 1025} {
		s := NewBitVector(m)
		lg := int(math.Ceil(math.Log2(float64(m))))
		if s.PoolSize() != 2*lg {
			t.Errorf("m=%d: pool %d, want 2⌈lg m⌉ = %d", m, s.PoolSize(), 2*lg)
		}
	}
}

func TestBollobasTightness(t *testing.T) {
	// Theorem 9: Σ 1/C(a+b, a) ≤ 1 for any valid scheme; the full pool
	// scheme meets it with equality.
	for _, m := range []int{2, 6, 20, 70} {
		for _, s := range []Scheme{NewPool(m), NewBitVector(m)} {
			if sum := BollobasSum(s); sum > 1+1e-9 {
				t.Errorf("%s m=%d: Bollobás sum %v > 1", s.Name(), m, sum)
			}
		}
	}
	// Full pool: m = C(k, k/2) exactly.
	for _, k := range []int{2, 4, 6, 8} {
		m := int(Binomial(k, k/2))
		if sum := BollobasSum(NewPool(m)); math.Abs(sum-1) > 1e-9 {
			t.Errorf("full pool k=%d: Bollobás sum %v, want 1 (optimal)", k, sum)
		}
	}
}

func TestBinaryScheme(t *testing.T) {
	b := Binary{}
	if b.M() != 2 || b.PoolSize() != 2 {
		t.Fatal("binary scheme shape wrong")
	}
	if w := b.WriteQuorum(0).Indices(); len(w) != 1 || w[0] != 0 {
		t.Fatalf("W_0 = %v", w)
	}
	if r := b.ReadQuorum(0).Indices(); len(r) != 1 || r[0] != 1 {
		t.Fatalf("R_0 = %v", r)
	}
	if err := Verify(b); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumsAllocFree pins every scheme's quorums at zero allocations,
// called through the Scheme interface as the ratifier calls them.
func TestQuorumsAllocFree(t *testing.T) {
	for _, s := range []Scheme{Binary{}, NewPool(4096), NewBitVector(4096)} {
		var sink Set
		if allocs := testing.AllocsPerRun(100, func() {
			sink = s.WriteQuorum(1)
			sink = s.ReadQuorum(1)
		}); allocs != 0 {
			t.Errorf("%s quorums: %v allocations per call pair, want 0", s.Name(), allocs)
		}
		_ = sink
	}
}

// unrankReference is the textbook colex unranking with a Binomial call per
// probe, kept as the reference for Pool's incremental scan.
func unrankReference(rank uint64, t int) []int {
	out := make([]int, t)
	for i := t; i >= 1; i-- {
		c := i - 1
		for Binomial(c+1, i) <= rank {
			c++
		}
		out[i-1] = c
		rank -= Binomial(c, i)
	}
	return out
}

func TestPoolUnrankMatchesReference(t *testing.T) {
	check := func(p *Pool, v uint64) {
		t.Helper()
		got, want := p.WriteQuorum(value.Value(v)).Indices(), unrankReference(v, p.PoolSize()/2)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: W_%d = %v, reference %v", p.Name(), v, got, want)
		}
		r := p.ReadQuorum(value.Value(v))
		if r.Len() != p.PoolSize()-len(want) || r.Intersects(p.WriteQuorum(value.Value(v))) {
			t.Fatalf("%s: R_%d = %v is not the complement of %v", p.Name(), v, r, want)
		}
	}
	for _, m := range []int{2, 3, 20, 35, 4096, 184756} {
		p := NewPool(m)
		for v := 0; v < min(m, 5000); v++ {
			check(p, uint64(v))
		}
		check(p, uint64(m-1))
	}
	// The largest pool Binomial's range allows, and a bit-vector pool that
	// spans both words of a Set.
	big := NewPool(int(Binomial(61, 30)))
	if big.PoolSize() != 61 {
		t.Fatalf("pool for m = C(61, 30) has %d registers, want 61", big.PoolSize())
	}
	for _, v := range []uint64{0, 1, 1 << 40, 1<<57 + 12345, Binomial(61, 30) - 1} {
		check(big, v)
	}
	bv := NewBitVector(math.MaxInt64)
	for _, v := range []value.Value{0, 1 << 62, math.MaxInt64 - 1} {
		w, r := bv.WriteQuorum(v), bv.ReadQuorum(v)
		if w.Len() != 63 || r.Len() != 63 || w.Intersects(r) || w.Indices()[62] != 124+int(v>>62)&1 {
			t.Fatalf("%s: W_%d = %v, R = %v", bv.Name(), v, w, r)
		}
	}
}

func TestSetOps(t *testing.T) {
	var s Set
	for _, i := range []int{127, 0, 64, 63, 5} {
		s.Add(i)
	}
	if got := s.Indices(); !slices.Equal(got, []int{0, 5, 63, 64, 127}) || s.Len() != 5 {
		t.Fatalf("Indices = %v (Len %d), want [0 5 63 64 127]", got, s.Len())
	}
	if s.String() != "[0 5 63 64 127]" {
		t.Fatalf("String = %q", s.String())
	}
	for _, k := range []int{0, 1, 63, 64, 65, 126, 128} {
		if b := below(k); b.Len() != k || (k > 0 && b.Indices()[k-1] != k-1) {
			t.Fatalf("below(%d) = %v", k, b)
		}
	}
	if got := below(128).without(s).Len(); got != 123 {
		t.Fatalf("complement has %d indices, want 123", got)
	}
	if !s.Intersects(Set{0, 1 << 63}) || s.Intersects(Set{1 << 1, 1 << 1}) {
		t.Fatal("Intersects is wrong")
	}
	if i := (&Set{}).Pop(); i != -1 {
		t.Fatalf("Pop on an empty set = %d, want -1", i)
	}
}

func TestSchemePanicsOnBadValues(t *testing.T) {
	schemes := []Scheme{Binary{}, NewPool(4), NewBitVector(4)}
	bad := []value.Value{-1, 4, value.None}
	for _, s := range schemes {
		for _, v := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s.WriteQuorum(%s) did not panic", s.Name(), v)
					}
				}()
				s.WriteQuorum(v)
			}()
		}
	}
}

func TestVerifyPropertyRandomM(t *testing.T) {
	f := func(mRaw uint16) bool {
		m := int(mRaw%500) + 2
		return Verify(NewPool(m)) == nil && Verify(NewBitVector(m)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceRow(t *testing.T) {
	row := Space(16)
	if row.BitVecRegisters != row.PaperBitVecExact {
		t.Errorf("bitvec registers %d != paper formula %d", row.BitVecRegisters, row.PaperBitVecExact)
	}
	if row.PoolRegisters != row.PaperPoolBound {
		t.Errorf("pool registers %d != MinPoolSize+1 = %d", row.PoolRegisters, row.PaperPoolBound)
	}
	if row.PoolRegisters > row.BitVecRegisters {
		t.Errorf("optimal pool (%d regs) larger than bit-vector (%d regs)", row.PoolRegisters, row.BitVecRegisters)
	}
}

func TestBitVectorRejectsM1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m=1")
		}
	}()
	NewBitVector(1)
}

func TestVerifySample(t *testing.T) {
	// Sampled verification agrees with full verification on valid schemes
	// and still catches the diagonal of a broken one.
	for _, m := range []int{2, 50, 5000} {
		if err := VerifySample(NewPool(m), 500, 1); err != nil {
			t.Errorf("pool m=%d: %v", m, err)
		}
		if err := VerifySample(NewBitVector(m), 500, 1); err != nil {
			t.Errorf("bitvector m=%d: %v", m, err)
		}
	}
	if err := VerifySample(brokenScheme{}, 100, 1); err == nil {
		t.Error("sampled verification missed a broken scheme")
	}
	if err := Verify(brokenScheme{}); err == nil {
		t.Error("full verification missed a broken scheme")
	}
}

// brokenScheme violates the diagonal condition: W_v ∩ R_v ≠ ∅.
type brokenScheme struct{}

func (brokenScheme) M() int                        { return 2 }
func (brokenScheme) PoolSize() int                 { return 2 }
func (brokenScheme) WriteQuorum(v value.Value) Set { return Set{1} }
func (brokenScheme) ReadQuorum(v value.Value) Set  { return Set{1} }
func (brokenScheme) Name() string                  { return "broken" }
