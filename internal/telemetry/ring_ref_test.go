package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// refRingStore is the ring store as it was before chunked growth and
// compact entries: one slice of full Points sized to the capacity up
// front. It is the reference the differential test holds RingStore
// to.
type refRingStore struct {
	buf     []Point
	next    int
	full    bool
	dropped uint64
}

func newRefRingStore(capacity int) *refRingStore {
	return &refRingStore{buf: make([]Point, 0, capacity)}
}

func (r *refRingStore) Add(p Point) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, p)
		return
	}
	r.full = true
	r.dropped++
	r.buf[r.next] = p
	r.next = (r.next + 1) % cap(r.buf)
}

func (r *refRingStore) Len() int        { return len(r.buf) }
func (r *refRingStore) Dropped() uint64 { return r.dropped }

func (r *refRingStore) Since(t simtime.Time) []Point {
	out := make([]Point, 0, len(r.buf))
	for _, p := range r.inOrder() {
		if p.At >= t {
			out = append(out, p)
		}
	}
	return out
}

func (r *refRingStore) inOrder() []Point {
	if !r.full {
		return r.buf
	}
	out := make([]Point, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// pointStream yields points the way a pipeline does: collections of
// about perCollect points at nondecreasing virtual times, over a few
// links, tenants and metrics, some stale.
type pointStream struct {
	rng        *rand.Rand
	perCollect int
	at         simtime.Time
}

func (s *pointStream) next() Point {
	if s.rng.Intn(s.perCollect) == 0 {
		s.at += simtime.Time(1 + s.rng.Intn(3))
	}
	links := []topology.LinkID{"nic0->pcie0", "pcie0->socket0", "socket0->dimm0"}
	tenants := []fabric.TenantID{"", "", "kv", "ml", "batch"}
	metrics := []Metric{MetricBytes, MetricUtilization, MetricRate}
	return Point{
		At:     s.at,
		Link:   links[s.rng.Intn(len(links))],
		Tenant: tenants[s.rng.Intn(len(tenants))],
		Metric: metrics[s.rng.Intn(len(metrics))],
		Value:  s.rng.Float64() * 1e9,
		Stale:  s.rng.Intn(5) == 0,
	}
}

// TestRingStoreMatchesReference: over seeded point streams, RingStore
// agrees with the reference on Len, Dropped and Since(t) for every
// cutoff t, at capacities below, at, across and not a multiple of the
// chunk size, on unwrapped and wrapped rings.
func TestRingStoreMatchesReference(t *testing.T) {
	capacities := []int{1, 3, 100, ringChunk - 1, ringChunk, ringChunk + 1, 2*ringChunk + 37, 3 * ringChunk}
	for _, capacity := range capacities {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				r, err := NewRingStore(capacity)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefRingStore(capacity)
				s := &pointStream{rng: rand.New(rand.NewSource(seed)), perCollect: max(4, capacity/16)}
				total := 2*capacity + ringChunk/2 + 5
				checks := map[int]bool{0: true, 1: true, total: true}
				for _, n := range []int{capacity - 1, capacity, capacity + 1, ringChunk - 1, ringChunk, ringChunk + 1, 2*capacity - 1, 2 * capacity} {
					checks[n] = true
				}
				for n := 0; n <= total; n++ {
					if checks[n] {
						compareRings(t, n, r, ref)
					}
					p := s.next()
					r.Add(p)
					ref.Add(p)
				}
			})
		}
	}
}

func compareRings(t *testing.T, added int, r *RingStore, ref *refRingStore) {
	t.Helper()
	if r.Len() != ref.Len() || r.Dropped() != ref.Dropped() {
		t.Fatalf("after %d adds: len %d dropped %d, reference len %d dropped %d",
			added, r.Len(), r.Dropped(), ref.Len(), ref.Dropped())
	}
	all := ref.Since(0)
	lo, hi := simtime.Time(0), simtime.Time(0)
	if len(all) > 0 {
		lo, hi = all[0].At, all[len(all)-1].At
	}
	for cut := lo - 1; cut <= hi+1; cut++ {
		// The reference's Since(cut) is all filtered by At >= cut;
		// walk that filter without copying it.
		got, j := r.Since(cut), 0
		for _, p := range all {
			if p.At < cut {
				continue
			}
			if j >= len(got) || got[j] != p {
				t.Fatalf("after %d adds: Since(%d) differs from the reference at point %d", added, cut, j)
			}
			j++
		}
		if j != len(got) {
			t.Fatalf("after %d adds: Since(%d) returned %d points, reference %d", added, cut, len(got), j)
		}
	}
}

// TestRingStoreGrowsInChunks: a new store holds no entries, each chunk
// is allocated only when the ring reaches it, the last one is cut to
// the capacity, and a full ring allocates nothing more.
func TestRingStoreGrowsInChunks(t *testing.T) {
	const capacity = 2*ringChunk + 10
	r, _ := NewRingStore(capacity)
	if len(r.chunks) != 0 {
		t.Fatalf("new store holds %d chunks", len(r.chunks))
	}
	p := Point{Link: "l", Metric: MetricBytes}
	for n := 1; n <= capacity+ringChunk; n++ {
		r.Add(p)
		want := min((n+ringChunk-1)/ringChunk, 3)
		if len(r.chunks) != want {
			t.Fatalf("after %d adds: %d chunks, want %d", n, len(r.chunks), want)
		}
	}
	if got := len(r.chunks[2]); got != 10 {
		t.Fatalf("last chunk holds %d entries, want 10", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Add(p) }); allocs != 0 {
		t.Fatalf("Add on a full ring allocates %.1f times", allocs)
	}
}

// TestRingEntryIsCompact: a ring entry is 24 bytes and holds no
// pointer, so the garbage collector never scans a ring's chunks.
func TestRingEntryIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 24 {
		t.Fatalf("entry is %d bytes, want 24", size)
	}
	typ := reflect.TypeOf(entry{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Float64, reflect.Uint32, reflect.Bool:
		default:
			t.Fatalf("entry field %s is a %s", f.Name, f.Type.Kind())
		}
	}
}

// BenchmarkRingStoreAdd measures storing one collection's points, as
// the pipeline does every period: the intercept points of a host
// carrying two tenants, into a full ring of the default capacity. It
// allocates nothing.
func BenchmarkRingStoreAdd(b *testing.B) {
	const capacity = 1 << 16
	fab, e := newFab(b)
	e.RunFor(simtime.Millisecond)
	pts := NewInterceptSource(fab).Collect(nil)
	r, _ := NewRingStore(capacity)
	for r.Len() < capacity {
		r.Add(pts[r.Len()%len(pts)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			r.Add(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}
