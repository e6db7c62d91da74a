package execbuf

import (
	"runtime"
	"sync"
	"testing"
)

func TestArenaReusesCapacity(t *testing.T) {
	var a Arena
	r1 := a.Ranks(100)
	if len(r1) != 100 {
		t.Fatalf("len = %d, want 100", len(r1))
	}
	r1[0] = 42
	r2 := a.Ranks(50)
	if &r1[0] != &r2[0] {
		t.Error("shrinking request did not reuse the backing array")
	}
	if a.Grows() != 1 {
		t.Errorf("grows = %d, want 1 (one allocation serves both requests)", a.Grows())
	}
	if a.Ranks(200); a.Grows() != 2 {
		t.Errorf("grows = %d after larger request, want 2", a.Grows())
	}
}

func TestArenaZeroesScratchBuffers(t *testing.T) {
	var a Arena
	for _, f := range []func(int) []float32{a.Acc, a.Bins, a.Contrib} {
		s := f(64)
		for i := range s {
			s[i] = 1
		}
	}
	for name, f := range map[string]func(int) []float32{"acc": a.Acc, "bins": a.Bins, "contrib": a.Contrib} {
		for i, v := range f(64) {
			if v != 0 {
				t.Fatalf("%s[%d] = %g on reuse, want 0", name, i, v)
			}
		}
	}
	p := a.Partials(4)
	p[2].V = 7
	if got := a.Partials(4); got[2].V != 0 {
		t.Errorf("partials not zeroed on reuse: %g", got[2].V)
	}
	r := a.Residuals(4)
	r[1].V = 3
	if got := a.Residuals(4); got[1].V != 0 {
		t.Errorf("residuals not zeroed on reuse: %g", got[1].V)
	}
}

func TestArenaRanksNotZeroed(t *testing.T) {
	// Ranks are fully overwritten by the caller; the arena must not pay an
	// extra clear pass for them.
	var a Arena
	r := a.Ranks(8)
	r[3] = 5
	if got := a.Ranks(8); got[3] != 5 {
		t.Error("ranks buffer was cleared; contract says contents are unspecified but untouched")
	}
}

func TestArenaFootprint(t *testing.T) {
	var a Arena
	a.Ranks(100)
	a.Partials(2)
	want := int64(100*4 + 2*64)
	if got := a.Footprint(); got != want {
		t.Errorf("footprint = %d, want %d", got, want)
	}
}

func TestPoolRecyclesSequentially(t *testing.T) {
	var p Pool
	a := p.Get()
	a.Ranks(10)
	p.Put(a)
	b := p.Get()
	if a != b {
		t.Error("sequential Get after Put returned a different arena")
	}
	s := p.Stats()
	if s.Created != 1 || s.Reused != 1 {
		t.Errorf("stats = %+v, want Created=1 Reused=1", s)
	}
}

func TestPoolConcurrentGetsAreDistinct(t *testing.T) {
	var p Pool
	const n = 8
	arenas := make([]*Arena, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arenas[i] = p.Get()
		}(i)
	}
	wg.Wait()
	seen := map[*Arena]bool{}
	for _, a := range arenas {
		if seen[a] {
			t.Fatal("two concurrent Gets shared one arena")
		}
		seen[a] = true
	}
	if s := p.Stats(); s.Created != n {
		t.Errorf("created = %d, want %d", s.Created, n)
	}
	for _, a := range arenas {
		p.Put(a)
	}
	if got := p.Get(); !seen[got] {
		t.Error("Get after Put returned an unknown arena")
	}
}

func TestPoolPutNilIsNoop(t *testing.T) {
	var p Pool
	p.Put(nil)
	if p.Get() == nil {
		t.Fatal("Get returned nil")
	}
}

// TestGlobalStatsTrackPoolTraffic checks the process-wide registry mirror:
// pool traffic shows up in GlobalStats/Outstanding as deltas (the series are
// shared by every pool in the process, so only deltas are assertable).
func TestGlobalStatsTrackPoolTraffic(t *testing.T) {
	base := GlobalStats()
	baseOut := Outstanding()

	var p Pool
	a := p.Get() // fresh: created+1, outstanding+1
	if got := GlobalStats(); got.Created != base.Created+1 || got.Reused != base.Reused {
		t.Errorf("after Get: global delta = %+v from %+v, want one created", got, base)
	}
	if got := Outstanding(); got != baseOut+1 {
		t.Errorf("outstanding = %d, want %d", got, baseOut+1)
	}
	p.Put(a)
	if got := Outstanding(); got != baseOut {
		t.Errorf("outstanding after Put = %d, want %d", got, baseOut)
	}
	b := p.Get() // warm: reused+1
	if b != a {
		t.Error("sequential Get did not recycle the arena")
	}
	if got := GlobalStats(); got.Created != base.Created+1 || got.Reused != base.Reused+1 {
		t.Errorf("after recycle: global delta = %+v from %+v, want one created + one reused", got, base)
	}
	p.Put(b)

	// Put(nil) must not disturb the gauge.
	p.Put(nil)
	if got := Outstanding(); got != baseOut {
		t.Errorf("outstanding after Put(nil) = %d, want %d", got, baseOut)
	}
}

// TestPoolCapBoundsFreeList: a concurrency burst must not pin its peak arena
// memory forever — Put drops arenas beyond the cap.
func TestPoolCapBoundsFreeList(t *testing.T) {
	var p Pool
	p.SetCap(2)
	if got := p.Cap(); got != 2 {
		t.Fatalf("cap = %d, want 2", got)
	}
	const burst = 6
	arenas := make([]*Arena, burst)
	for i := range arenas {
		arenas[i] = p.Get()
	}
	for _, a := range arenas {
		p.Put(a)
	}
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	if free != 2 {
		t.Errorf("free list holds %d arenas after the burst, want cap 2", free)
	}
	s := p.Stats()
	if s.Freed != burst-2 {
		t.Errorf("freed = %d, want %d", s.Freed, burst-2)
	}
	if s.Outstanding != 0 {
		t.Errorf("outstanding = %d after all Puts, want 0", s.Outstanding)
	}
}

func TestPoolDefaultCapIsGOMAXPROCS(t *testing.T) {
	var p Pool
	if got, want := p.Cap(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default cap = %d, want GOMAXPROCS = %d", got, want)
	}
	p.SetCap(5)
	p.SetCap(0) // restore default
	if got, want := p.Cap(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("cap after SetCap(0) = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestPoolCrossPoolPutSettlesWithOwner: an arena drawn from one pool and
// released into another (an Exec spanning a reload's artifact swap) must
// settle its checkout with the issuing pool — neither pool's Outstanding may
// go negative, and the global gauge stays balanced.
func TestPoolCrossPoolPutSettlesWithOwner(t *testing.T) {
	baseOut := Outstanding()
	var p1, p2 Pool
	a := p1.Get()
	if s := p1.Stats(); s.Outstanding != 1 {
		t.Fatalf("p1 outstanding = %d after Get, want 1", s.Outstanding)
	}
	p2.Put(a)
	if s := p1.Stats(); s.Outstanding != 0 {
		t.Errorf("p1 outstanding = %d after cross-pool Put, want 0", s.Outstanding)
	}
	if s := p2.Stats(); s.Outstanding != 0 {
		t.Errorf("p2 outstanding = %d after receiving a foreign arena, want 0", s.Outstanding)
	}
	if got := Outstanding(); got != baseOut {
		t.Errorf("global outstanding = %d, want %d", got, baseOut)
	}
	// The arena now serves p2's next Get.
	if b := p2.Get(); b != a {
		t.Error("cross-pool Put did not land the arena on p2's free list")
	} else {
		p2.Put(b)
	}
}

// TestPoolDoublePutCannotGoNegative: a second Put of the same arena is a
// caller bug, but it must not corrupt the accounting.
func TestPoolDoublePutCannotGoNegative(t *testing.T) {
	baseOut := Outstanding()
	var p Pool
	p.SetCap(8)
	a := p.Get()
	p.Put(a)
	p.Put(a)
	if got := Outstanding(); got != baseOut {
		t.Errorf("global outstanding = %d after double Put, want %d", got, baseOut)
	}
	if s := p.Stats(); s.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after double Put, want 0", s.Outstanding)
	}
}

// TestPoolMoveToRespectsDstCap: migrating a free list across an artifact
// transition must not overshoot the destination's bound.
func TestPoolMoveToRespectsDstCap(t *testing.T) {
	var src, dst Pool
	src.SetCap(8)
	dst.SetCap(2)
	arenas := make([]*Arena, 5)
	for i := range arenas {
		arenas[i] = src.Get()
	}
	for _, a := range arenas {
		src.Put(a)
	}
	src.moveTo(&dst)
	dst.mu.Lock()
	free := len(dst.free)
	dst.mu.Unlock()
	if free != 2 {
		t.Errorf("dst free list = %d after moveTo, want cap 2", free)
	}
	if s := dst.Stats(); s.Freed != 3 {
		t.Errorf("dst freed = %d, want 3", s.Freed)
	}
	src.mu.Lock()
	srcFree := len(src.free)
	src.mu.Unlock()
	if srcFree != 0 {
		t.Errorf("src free list = %d after moveTo, want 0", srcFree)
	}
}

// TestPoolMoveToMidFlight: arenas checked out across a moveTo settle
// correctly no matter which pool they are returned to.
func TestPoolMoveToMidFlight(t *testing.T) {
	baseOut := Outstanding()
	var old, next Pool
	held := old.Get() // in-flight Exec on the old artifact
	warm := old.Get()
	old.Put(warm) // one warm arena on the old free list
	old.moveTo(&next)
	// The in-flight arena returns into the *new* artifact's pool.
	next.Put(held)
	if s := old.Stats(); s.Outstanding != 0 {
		t.Errorf("old outstanding = %d, want 0", s.Outstanding)
	}
	if s := next.Stats(); s.Outstanding != 0 {
		t.Errorf("next outstanding = %d, want 0", s.Outstanding)
	}
	if got := Outstanding(); got != baseOut {
		t.Errorf("global outstanding = %d, want %d", got, baseOut)
	}
}

// TestPoolForwardsPutsToSuccessor: an arena checked out before two artifact
// swaps and Put back to the first, superseded pool lands on the newest
// pool's free list, so the next Exec reuses it instead of creating one. A
// pool that was only drained (moveTo without Supersede's forwarding link) keeps
// its own Puts.
func TestPoolForwardsPutsToSuccessor(t *testing.T) {
	var old, mid, cur Pool
	held := old.Get()
	old.Supersede(&mid)
	mid.Supersede(&cur)
	old.Put(held)
	if got := cur.Get(); got != held {
		t.Fatalf("newest pool handed out %p, want the forwarded arena %p", got, held)
	}
	if s := cur.Stats(); s.Created != 0 || s.Reused != 1 {
		t.Errorf("newest pool stats = %+v, want Created=0 Reused=1", s)
	}
	if s := old.Stats(); s.Outstanding != 0 {
		t.Errorf("old pool outstanding = %d after the forwarded Put, want 0", s.Outstanding)
	}
	cur.Put(held)

	var live, unpublished Pool
	a := live.Get()
	live.moveTo(&unpublished)
	live.Put(a)
	if got := live.Get(); got != a {
		t.Fatalf("drained pool handed out %p, want its own returned arena %p", got, a)
	}
	if s := unpublished.Stats(); s.Reused != 0 || s.Created != 0 {
		t.Errorf("unpublished pool stats = %+v, want no traffic", s)
	}
}

// TestPoolFollowAndSupersedeDraw: a pool built as the next version of
// another (Follow) draws its first arena from its predecessors' free lists
// — past an empty intermediate — and unlinks them, so the predecessor
// keeps its other arenas and is not retained; after a swap (Supersede) an
// Exec that starts on the superseded pool draws from its successor instead
// of creating an arena.
func TestPoolFollowAndSupersedeDraw(t *testing.T) {
	var live, mid, next Pool
	live.SetCap(2)
	next.SetCap(2)
	a, b := live.Get(), live.Get()
	live.Put(a)
	live.Put(b)
	mid.Follow(&live)
	next.Follow(&mid)
	got := next.Get()
	if got != b {
		t.Fatalf("following pool handed out %p, want the predecessor's warm arena %p", got, b)
	}
	if s := next.Stats(); s.Created != 0 || s.Reused != 1 {
		t.Errorf("following pool stats = %+v, want Created=0 Reused=1", s)
	}
	if l := len(live.free); l != 1 {
		t.Errorf("predecessor keeps %d free arenas, want 1", l)
	}
	if next.prev != nil {
		t.Error("the first Get left the predecessor linked")
	}
	next.Put(got)

	live.Supersede(&next)
	if s := next.Stats(); len(next.free) != 2 || s.Created != 0 {
		t.Fatalf("successor holds %d free arenas after the swap (stats %+v), want 2", len(next.free), s)
	}
	late := live.Get()
	if late != a && late != b {
		t.Fatalf("superseded pool handed out %p, want one of its successor's arenas", late)
	}
	if s := live.Stats(); s.Created != 2 || s.Reused != 1 {
		t.Errorf("superseded pool stats = %+v, want Created=2 (before the swap) Reused=1", s)
	}
	live.Put(late)
	if len(next.free) != 2 {
		t.Errorf("the late Exec's arena did not return to the successor: %d free", len(next.free))
	}
}
