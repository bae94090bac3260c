package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ooc/internal/testutil"
)

// mustMatrix builds a matrix whose size is known-valid in the test.
func mustMatrix(t testing.TB, r, c int) *Matrix {
	t.Helper()
	m, err := NewMatrix(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustIdentity(t testing.TB, n int) *Matrix {
	t.Helper()
	m, err := Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixRejectsInvalidSizes(t *testing.T) {
	for _, sz := range [][2]int{{0, 3}, {3, 0}, {-1, 2}, {0, 0}} {
		if _, err := NewMatrix(sz[0], sz[1]); !errors.Is(err, ErrShape) {
			t.Errorf("NewMatrix(%d, %d): want ErrShape, got %v", sz[0], sz[1], err)
		}
	}
	if _, err := Identity(0); !errors.Is(err, ErrShape) {
		t.Errorf("Identity(0): want ErrShape, got %v", err)
	}
	if _, err := Identity(-4); !errors.Is(err, ErrShape) {
		t.Errorf("Identity(-4): want ErrShape, got %v", err)
	}
}

func TestSolve2x2(t *testing.T) {
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 7
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 2.5
	}
	x, err := Solve(mustIdentity(t, n), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !testutil.Approx(x[i], b[i]) {
			t.Fatalf("identity solve changed b: %v vs %v", x, b)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestShapeErrors(t *testing.T) {
	a := mustMatrix(t, 2, 3)
	if _, err := Factorize(a); !errors.Is(err, ErrShape) {
		t.Errorf("Factorize non-square: %v", err)
	}
	sq := mustIdentity(t, 3)
	if _, err := Solve(sq, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("Solve wrong rhs length: %v", err)
	}
	if _, err := sq.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec wrong length: %v", err)
	}
}

func TestDet(t *testing.T) {
	a := mustMatrix(t, 3, 3)
	vals := [][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-24) > 1e-12 {
		t.Fatalf("det = %g, want 24", f.Det())
	}
	// Swapping two rows flips the sign.
	a.Set(0, 0, 0)
	a.Set(0, 1, 3)
	a.Set(1, 0, 2)
	a.Set(1, 1, 0)
	f, err = Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()+24) > 1e-12 {
		t.Fatalf("det = %g, want -24", f.Det())
	}
}

// randomDiagDominant builds a well-conditioned random system; property
// tests verify A·x ≈ b after solving.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a, _ := NewMatrix(n, n) // n ≥ 2 at every call site
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		a := randomDiagDominant(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*20 - 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res, err := Residual(a, x, b)
		if err != nil {
			return false
		}
		return res < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLUReusableForMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDiagDominant(rng, 12)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		b := make([]float64, 12)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-9 {
			t.Fatalf("rhs %d residual %g", k, res)
		}
	}
}

func TestFactorizeDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 5)
	before := a.Clone()
	if _, err := Factorize(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			//ooclint:ignore floatcmp untouched values must match bit-for-bit
			if a.At(i, j) != before.At(i, j) {
				t.Fatalf("Factorize mutated input at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixAddAndMaxAbs(t *testing.T) {
	m := mustMatrix(t, 2, 2)
	m.Add(0, 1, 2.5)
	m.Add(0, 1, -1.0)
	if !testutil.Approx(m.At(0, 1), 1.5) {
		t.Fatalf("Add: got %g", m.At(0, 1))
	}
	m.Set(1, 0, -9)
	if !testutil.Approx(m.MaxAbs(), 9) {
		t.Fatalf("MaxAbs: got %g", m.MaxAbs())
	}
}

// randomGeneral fills an n×n matrix with standard-normal entries: no
// diagonal dominance, so elimination pivots on almost every column.
func randomGeneral(rng *rand.Rand, n int) *Matrix {
	m := &Matrix{rows: n, cols: n, data: make([]float64, n*n)}
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// sameLU reports whether two factorizations agree bit for bit.
func sameLU(a, b *LU) bool {
	if a.sign != b.sign || a.lu.rows != b.lu.rows || len(a.piv) != len(b.piv) {
		return false
	}
	for i := range a.piv {
		if a.piv[i] != b.piv[i] {
			return false
		}
	}
	for i := range a.lu.data {
		if math.Float64bits(a.lu.data[i]) != math.Float64bits(b.lu.data[i]) {
			return false
		}
	}
	return true
}

// TestRefactorMatchesFactorize: refactoring into storage that held a
// different factorization (other pivots, other values) gives the same
// bits as a fresh Factorize, and so does the solve.
func TestRefactorMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	swap := mustMatrix(t, 3, 3) // zero diagonal: every column pivots
	swap.Set(0, 1, 1)
	swap.Set(1, 2, 2)
	swap.Set(2, 0, 3)
	cases := []*Matrix{swap, randomGeneral(rng, 3), randomDiagDominant(rng, 3), randomGeneral(rng, 3)}
	var f LU
	for k, a := range cases {
		if err := f.Refactor(a); err != nil {
			t.Fatalf("case %d: Refactor: %v", k, err)
		}
		fresh, err := Factorize(a)
		if err != nil {
			t.Fatalf("case %d: Factorize: %v", k, err)
		}
		if !sameLU(&f, fresh) {
			t.Fatalf("case %d: refactored LU differs from a fresh factorization", k)
		}
		b := []float64{1, -2, 0.5}
		x := make([]float64, 3)
		if err := f.SolveInto(x, b); err != nil {
			t.Fatalf("case %d: SolveInto: %v", k, err)
		}
		want, err := fresh.Solve(b)
		if err != nil {
			t.Fatalf("case %d: Solve: %v", k, err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d: x[%d] = %v, fresh solve gives %v", k, i, x[i], want[i])
			}
		}
	}
}

// TestRefactorReusesStorage: a same-size refactor and solve allocate
// nothing; a size change reallocates and still factors correctly.
func TestRefactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a4, a6 := randomGeneral(rng, 4), randomGeneral(rng, 6)
	var f LU
	if err := f.Refactor(a4); err != nil {
		t.Fatal(err)
	}
	data := &f.lu.data[0]
	x, b := make([]float64, 4), []float64{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Refactor(a4); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("same-size Refactor+SolveInto allocated %v times per run, want 0", allocs)
	}
	if &f.lu.data[0] != data {
		t.Error("same-size Refactor replaced the LU storage")
	}

	if err := f.Refactor(a6); err != nil {
		t.Fatal(err)
	}
	if f.lu.rows != 6 || len(f.lu.data) != 36 || len(f.piv) != 6 {
		t.Fatalf("after a 4→6 refactor the LU is %dx%d with %d pivots", f.lu.rows, f.lu.cols, len(f.piv))
	}
	fresh, err := Factorize(a6)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLU(&f, fresh) {
		t.Error("resized LU differs from a fresh factorization")
	}
}

// TestRefactorSingular: a singular matrix still reports ErrSingular,
// and the LU it leaves behind refuses to solve rather than reuse the
// previous factorization.
func TestRefactorSingular(t *testing.T) {
	var f LU
	if err := f.Refactor(mustIdentity(t, 2)); err != nil {
		t.Fatal(err)
	}
	sing := mustMatrix(t, 2, 2)
	sing.Set(0, 0, 1)
	sing.Set(0, 1, 2)
	sing.Set(1, 0, 2)
	sing.Set(1, 1, 4)
	if err := f.Refactor(sing); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor of a singular matrix: want ErrSingular, got %v", err)
	}
	if err := f.SolveInto(make([]float64, 2), []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("SolveInto after a failed Refactor: want ErrSingular, got %v", err)
	}
	if d := f.Det(); !math.IsNaN(d) {
		t.Errorf("Det after a failed Refactor = %g, want NaN", d)
	}
	var zero LU
	if err := zero.SolveInto(make([]float64, 2), []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("SolveInto on the zero LU: want ErrSingular, got %v", err)
	}
}

func TestSolveIntoShapeErrors(t *testing.T) {
	f, err := Factorize(mustIdentity(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SolveInto(make([]float64, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("SolveInto short rhs: want ErrShape, got %v", err)
	}
	if err := f.SolveInto(make([]float64, 4), []float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Errorf("SolveInto long solution: want ErrShape, got %v", err)
	}
	var g LU
	if err := g.Refactor(mustMatrix(t, 2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("Refactor non-square: want ErrShape, got %v", err)
	}
}
