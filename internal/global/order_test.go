package global

import (
	"context"
	"reflect"
	"testing"

	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
)

func TestReorderByFailuresStable(t *testing.T) {
	// Nets 1, 3, 4 tie at one failure; 0 and 2 tie at zero. Each tie group
	// must keep its prior relative order while the groups themselves swap.
	order := []int{0, 1, 2, 3, 4}
	failCount := []int{0, 1, 0, 1, 1}
	reorderByFailures(order, failCount)
	if want := []int{1, 3, 4, 0, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("reorderByFailures = %v, want %v (stable ties)", order, want)
	}
	// Idempotent: a second adjustment with unchanged counts is a no-op.
	reorderByFailures(order, failCount)
	if want := []int{1, 3, 4, 0, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second reorderByFailures = %v, want %v", order, want)
	}
}

func TestNilOrderStrategyEqualsRUDY(t *testing.T) {
	legacy := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	explicit := buildRouter(t, "dense1", rgraph.Options{}, Options{Order: portfolio.RUDY{}})
	a := legacy.initialOrder(context.Background())
	b := explicit.initialOrder(context.Background())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil strategy order != explicit RUDY order:\n%v\n%v", a, b)
	}
}

// stubStrategy lets tests inject arbitrary (including broken) orders.
type stubStrategy struct {
	name string
	fn   func(n int) []int
}

func (s stubStrategy) Name() string                                      { return s.name }
func (s stubStrategy) Order(_ context.Context, m *portfolio.Model) []int { return s.fn(m.Nets) }

func TestOrderStrategyHonored(t *testing.T) {
	reverse := stubStrategy{name: "reverse", fn: func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	}}
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{Order: reverse})
	got := r.initialOrder(context.Background())
	want := reverse.fn(len(r.G.Design.Nets))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("initialOrder = %v, want the injected reverse order %v", got, want)
	}
}

func TestBrokenStrategyFallsBackToRUDY(t *testing.T) {
	broken := stubStrategy{name: "broken", fn: func(n int) []int {
		return make([]int, n) // all zeros: not a permutation
	}}
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{Order: broken})
	got := r.initialOrder(context.Background())
	want := buildRouter(t, "dense1", rgraph.Options{}, Options{}).initialOrder(context.Background())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("broken strategy did not fall back to RUDY order:\n%v\n%v", got, want)
	}
}

func TestConfiguredStrategyStillRoutes(t *testing.T) {
	for _, name := range []string{"netlen", "congestion"} {
		strat, err := portfolio.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r := buildRouter(t, "dense1", rgraph.Options{}, Options{Order: strat})
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Routability(); got != 1 {
			t.Errorf("%s: routability = %v, failed nets %v", name, got, res.FailedNets)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDisableRUDYOrderWinsOverStrategy(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{},
		Options{DisableRUDYOrder: true, Order: portfolio.NetLen{}})
	got := r.initialOrder(context.Background())
	for i, ni := range got {
		if ni != i {
			t.Fatalf("DisableRUDYOrder order = %v, want identity", got)
		}
	}
}

func TestConflictPairsCanonical(t *testing.T) {
	r := buildRouter(t, "dense3", rgraph.Options{}, Options{Order: portfolio.Congestion{}})
	order := r.initialOrder(context.Background())
	if !portfolio.ValidOrder(order, len(r.G.Design.Nets)) {
		t.Fatal("congestion strategy returned invalid order")
	}
	// conflictPairs iterates maps internally; its output must be canonical
	// anyway. Recompute on a fresh router and compare.
	r2 := buildRouter(t, "dense3", rgraph.Options{}, Options{Order: portfolio.Congestion{}})
	r2.initialOrder(context.Background())
	d1 := r.orderModel.Conflicts
	d2 := r2.orderModel.Conflicts
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("conflictPairs not canonical across runs:\n%v\n%v", d1, d2)
	}
	for i := 1; i < len(d1); i++ {
		a, b := d1[i-1], d1[i]
		if a.A > b.A || (a.A == b.A && a.B >= b.B) {
			t.Fatalf("conflictPairs not sorted at %d: %v then %v", i, a, b)
		}
	}
	for _, c := range d1 {
		if c.A >= c.B || c.Shared < 1 {
			t.Fatalf("malformed conflict %v", c)
		}
	}
}

// TestConflictsBuiltOnlyForCongestion pins that the pairwise conflict
// signal is computed only for the strategy that reads it.
func TestConflictsBuiltOnlyForCongestion(t *testing.T) {
	for _, name := range portfolio.Names() {
		strat, err := portfolio.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r := buildRouter(t, "dense3", rgraph.Options{}, Options{Order: strat})
		r.initialOrder(context.Background())
		if got, want := len(r.orderModel.Conflicts) > 0, name == "congestion"; got != want {
			t.Errorf("%s: conflicts built = %v, want %v", name, got, want)
		}
	}
}
