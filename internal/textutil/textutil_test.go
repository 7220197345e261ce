package textutil

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of two hash sets,
// the reference the threshold-bounded set tests are held to. Two empty
// sets have similarity 1.
func Jaccard(a, b []uint64) float64 {
	n, _ := Overlap(a, b, 0)
	return JaccardCount(n, len(a), len(b))
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"simple", "There was a shooting", []string{"there", "was", "a", "shooting"}},
		{"hashtag stripped", "pray for safety #osu", []string{"pray", "for", "safety", "osu"}},
		{"mention stripped", "near @OSUengineering now", []string{"near", "osuengineering", "now"}},
		{"punctuation dropped", "Breaking: police, TONS!", []string{"breaking", "police", "tons"}},
		{"url kept", "see https://t.co/abc now", []string{"see", "https://t.co/abc", "now"}},
		{"empty", "   ", nil},
		{"pure punctuation", "!!! ???", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestJaccard(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want float64
	}{
		{"identical", "boston marathon bombing", "boston marathon bombing", 1},
		{"disjoint", "boston marathon", "paris shooting", 0},
		{"half", "a b c d", "c d e f", 1.0 / 3.0},
		{"both empty", "", "", 1},
		{"one empty", "a", "", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Jaccard(NewDoc(tt.a).Set, NewDoc(tt.b).Set); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Jaccard(%q,%q) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestJaccardProperties(t *testing.T) {
	// Symmetry and range.
	f := func(a, b string) bool {
		sa, sb := NewDoc(a).Set, NewDoc(b).Set
		j1, j2 := Jaccard(sa, sb), Jaccard(sb, sa)
		if j1 != j2 {
			return false
		}
		return j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Self-similarity is 1.
	g := func(a string) bool {
		s := NewDoc(a).Set
		return Jaccard(s, s) == 1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// run is the set of n consecutive hashes from from.
func run(from, n int) []uint64 {
	set := make([]uint64, n)
	for i := range set {
		set[i] = uint64(from + i)
	}
	return set
}

// TestMinOverlap checks MinOverlap against the float expression it stands
// for, for every pair of set sizes up to 64 and every shared count: at
// each threshold, JaccardCount(k) ≥ sim holds exactly when k reaches the
// bound. The thresholds include the copy detector's 0.8, the join's
// 1 − 0.7, values no count or every count reaches, and NaN, which none
// does. Two empty sets have similarity 1.
func TestMinOverlap(t *testing.T) {
	sims := []float64{0, 0.3, 1 - 0.7, 2.0 / 3, 0.75, 0.8, 1, 1.5, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for na := 0; na <= 64; na++ {
		for nb := 0; nb <= 64; nb++ {
			for _, sim := range sims {
				bound := MinOverlap(na, nb, sim)
				if bound < 0 || bound > min(na, nb)+1 {
					t.Fatalf("MinOverlap(%d, %d, %v) = %d, out of [0, %d]", na, nb, sim, bound, min(na, nb)+1)
				}
				for k := 0; k <= min(na, nb); k++ {
					if pass := JaccardCount(k, na, nb) >= sim; pass != (k >= bound) {
						t.Fatalf("na %d nb %d sim %v: JaccardCount(%d) = %v passes %v, bound %d", na, nb, sim, k, JaccardCount(k, na, nb), pass, bound)
					}
				}
			}
		}
	}
}

// TestOverlap checks the bounded merge on random sets against a count by
// binary search: whenever the sets share at least need hashes it returns
// the exact count with ok, and otherwise it reports !ok. Needs run from
// below zero to past both sizes, and every shared count up to 64 is met.
func TestOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(n, universe int) []uint64 {
		set := make([]uint64, 0, n)
		for _, h := range rng.Perm(universe)[:n] {
			set = append(set, uint64(h))
		}
		slices.Sort(set)
		return set
	}
	for trial := 0; trial < 20000; trial++ {
		na, nb := rng.Intn(65), rng.Intn(65)
		universe := max(na, nb) + rng.Intn(2*max(na, nb)+1)
		a, b := pick(na, universe), pick(nb, universe)
		if trial%7 == 0 { // a run of shared hashes too, to reach high counts
			inter := rng.Intn(min(na, nb) + 1)
			a, b = run(0, na), run(na-inter, nb)
		}
		inter := 0
		for _, h := range a {
			if _, ok := slices.BinarySearch(b, h); ok {
				inter++
			}
		}
		for need := -1; need <= max(na, nb)+1; need++ {
			n, ok := Overlap(a, b, need)
			if ok != (inter >= need) || ok && n != inter {
				t.Fatalf("Overlap(%v, %v, %d) = %d, %v; they share %d", a, b, need, n, ok, inter)
			}
		}
	}
}

func TestJaccardDistanceTriangleish(t *testing.T) {
	// Jaccard distance is a metric; spot-check the triangle inequality on
	// random word soups.
	dist := func(a, b []uint64) float64 { return 1 - Jaccard(a, b) }
	words := []string{"boston", "paris", "osu", "shooting", "bombing", "police", "fake", "lead", "score", "touchdown"}
	mk := func(seed int) []uint64 {
		var s []string
		for i, w := range words {
			if (seed>>i)&1 == 1 {
				s = append(s, w)
			}
		}
		return HashSet(s)
	}
	for a := 1; a < 64; a += 7 {
		for b := 1; b < 64; b += 5 {
			for c := 1; c < 64; c += 11 {
				da, db, dc := mk(a), mk(b), mk(c)
				ab := dist(da, db)
				bc := dist(db, dc)
				ac := dist(da, dc)
				if ac > ab+bc+1e-12 {
					t.Fatalf("triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v", a, c, ac, a, b, b, c, ab+bc)
				}
			}
		}
	}
}

func TestContainsAny(t *testing.T) {
	text := "Liberals putting out fake claims about the terrorist attack"
	d := NewDoc(text)
	if !d.HasAny(HashSet([]string{"rumor", "fake"})) {
		t.Error("HasAny missed 'fake'")
	}
	if d.HasAny(HashSet([]string{"touchdown"})) {
		t.Error("HasAny false positive")
	}
	if d.HasAny(nil) {
		t.Error("HasAny with no needles should be false")
	}
}

func TestContainsPhrase(t *testing.T) {
	text := "The Irish are taking the lead in the game!"
	tests := []struct {
		phrase string
		want   bool
	}{
		{"taking the lead", true},
		{"Taking The LEAD", true},
		{"the lead in", true},
		{"lead the taking", false},
		{"", true},
		{"the irish are taking the lead in the game extra words", false},
	}
	d := NewDoc(text)
	for _, tt := range tests {
		if got := d.HasPhrase(NewDoc(tt.phrase).Hashes); got != tt.want {
			t.Errorf("HasPhrase(%q) = %v, want %v", tt.phrase, got, tt.want)
		}
	}
}

func TestTokenSetDedups(t *testing.T) {
	set := NewDoc("boston boston BOSTON #boston").Set
	if len(set) != 1 || set[0] != Hash("boston") {
		t.Errorf("Doc.Set dedup failed: %v", set)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("café naïve 日本")
	if len(got) != 3 {
		t.Fatalf("unicode tokens = %v", got)
	}
	for _, tok := range got {
		if strings.TrimSpace(tok) == "" {
			t.Errorf("blank token in %v", got)
		}
	}
}

// TestDocHashes holds NewDoc's Hashes to Hash of each token, in token
// order, on both paths: ASCII text lowered in NewDoc's own pass (upper
// case, URLs, past the 256-byte and 32-token stack buffers) and text that
// is not ASCII, which strings.ToLower lowers.
func TestDocHashes(t *testing.T) {
	long := strings.Repeat("Word#1 ", 50) + "HTTPS://T.CO/Long,"
	for _, text := range []string{
		"",
		"   ",
		"RT @User: Two EXPLOSIONS at the #Boston marathon!! https://t.co/AbC",
		"http://x.y/a,b https:// http:/ HTTPS://T.CO/Q (https://t.co/q) hTtP://MiXeD",
		long,
		strings.ToUpper(long),
		"Café NAÏVE 日本語 İstanbul https://t.co/ÀÉ «quote» ǅemal",
		"a\xe6\x97 B\xe6\x97\xa5 \xef\xbf\xbd \xc0\x80 C\xed\xa0\x80D",
	} {
		d := NewDoc(text)
		if len(d.Hashes) != len(d.Tokens) {
			t.Fatalf("NewDoc(%q): %d hashes for %d tokens", text, len(d.Hashes), len(d.Tokens))
		}
		for i, tok := range d.Tokens {
			if d.Hashes[i] != Hash(tok) {
				t.Fatalf("NewDoc(%q): hash %d is %x, Hash(%q) = %x", text, i, d.Hashes[i], tok, Hash(tok))
			}
		}
		if want := referenceDoc(text); !reflect.DeepEqual(d, want) {
			t.Fatalf("NewDoc(%q) = %#v, reference gives %#v", text, d, want)
		}
	}
}

// TestSharedBoundNeverBelowCount holds SharedBound, from two sets' sizes
// and signatures alone, to at least the hashes the sets share, and MayHold
// to true for every hash a set holds. The hashes are drawn so that many
// share a signature bit: a few top-six-bit patterns under random low bits.
func TestSharedBoundNeverBelowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		tops := 1 + rng.Intn(64)
		draw := func() []uint64 {
			set := make([]uint64, rng.Intn(40))
			for i := range set {
				set[i] = uint64(rng.Intn(tops))<<58 | uint64(rng.Intn(24))
			}
			slices.Sort(set)
			return slices.Compact(set)
		}
		a, b := draw(), draw()
		shared, _ := Overlap(a, b, 0)
		sa, sb := Sig(a), Sig(b)
		if bound := SharedBound(len(a), sa, len(b), sb); bound < shared {
			t.Fatalf("SharedBound(%d, %x, %d, %x) = %d, the sets share %d", len(a), sa, len(b), sb, bound, shared)
		}
		for _, h := range a {
			if !MayHold(sa, h) {
				t.Fatalf("MayHold(%x, %x) is false for a hash of the set", sa, h)
			}
		}
	}
}
