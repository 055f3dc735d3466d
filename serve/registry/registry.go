// Package registry is the multi-tenant serving layer: one process, many
// models. A Registry keys full serving units — a serve.Server over a
// Batcher and its Swapper, optionally with a serve.Learner, f32 or 1-bit
// quantized — by model ID and exposes every per-model endpoint of the
// single-model server under /t/{model}/..., with a default-tenant alias
// keeping the single-model routes working unchanged.
//
// What makes it a platform rather than a demo is the shared replica
// budget: every resident tenant's Batcher leases up to Replicas scratch
// arenas sized for that tenant's shape (features × D × classes — tenants
// are heterogeneous), and the Registry caps the TOTAL resident replicas
// at a fixed pool capacity. A request for a parked tenant wakes it,
// parking the least-recently-used idle tenants to make room. Install
// builds a tenant's serving unit, which lasts until Remove, a replacing
// Install or Close; a park frees only its replica scratch, to the
// process-wide idle set (bounded by a constant; see disthd.Replica) where
// the next tenant of the same shape takes it, and a wake only accounts
// the pool. A parked tenant keeps its idle Batcher workers, request queue
// and batch buffers (about 21 KB at the default spec), and its model,
// counters and learner carry on; a retrain still running when it parks
// publishes into its Swapper as it would while resident.
// When no idle tenant can be parked — every resident replica is actively
// serving — admission fails with ErrPoolExhausted and the HTTP layer
// answers 429, so a process serving N tenants can never allocate
// replica scratch unboundedly, however many models are registered.
//
// Concurrency contract: Acquire/Release bracket every request. Acquire
// touches the LRU clock and pins the tenant resident (an in-flight request
// is never evicted under); Release unpins. Remove and Install drain —
// they wait until the tenant is idle — so a request admitted before a
// DELETE always completes. The steady-state Acquire/Release pair is one
// mutex lock and no allocations, preserving the serving hot path's
// zero-alloc contract per tenant.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
)

// ErrPoolExhausted is returned by Acquire when waking the tenant would
// exceed the replica pool capacity and every resident tenant is actively
// serving (nothing idle to park). The HTTP layer maps it to 429.
var ErrPoolExhausted = errors.New("registry: replica pool exhausted")

// ErrUnknownTenant is returned for a model ID that is not registered (or
// is mid-removal). The HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("registry: unknown tenant")

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("registry: closed")

// Spec configures one tenant's serving unit. The zero value serves with
// one replica, the serve.Options defaults otherwise, and no learner.
type Spec struct {
	// Options configures the tenant's Batcher. Replicas defaults to 1 —
	// not GOMAXPROCS as in the single-model server, because a multi-tenant
	// process shares cores across tenants and the pool accounts replicas,
	// so the default must be the cheapest resident footprint.
	Options serve.Options
	// Learner, when non-nil, attaches online learning (/learn, /retrain,
	// gated background retraining) to the tenant. Install attaches one
	// learner to the tenant's serving unit for the whole registration: a
	// park does not touch it, so its window, drift state and gauges carry
	// across every wake, and a background retrain may finish while the
	// tenant is parked.
	Learner *serve.LearnerOptions
}

// withDefaults resolves the registry-level defaults.
func (s Spec) withDefaults() Spec {
	if s.Options.Replicas == 0 {
		s.Options.Replicas = 1
	}
	return s
}

// Tenant is one registered model with its serving state. All mutable
// fields are guarded by the owning Registry's lock; the exported methods
// take it.
type Tenant struct {
	id   string
	spec Spec
	srv  *serve.Server // for the whole registration, resident or parked

	resident  bool
	removing  bool
	inflight  int
	lastUse   uint64 // registry LRU clock value at the last Acquire
	installed time.Time

	wakes     uint64 // times this tenant was made resident (first install included)
	evictions uint64 // times this tenant was parked to reclaim pool capacity
	rejected  uint64 // Acquire calls answered ErrPoolExhausted for this tenant
}

// ID returns the tenant's model ID.
func (t *Tenant) ID() string { return t.id }

// Server returns the tenant's serving unit, the same for the whole
// registration. Serve through it only between the Acquire that returned
// this tenant and the matching Release: outside that window the tenant
// may be parked (out of the pool) or removed (its Batcher closed).
func (t *Tenant) Server() *serve.Server { return t.srv }

// Registry holds the tenants and the shared replica pool. Create one with
// New, Install models into it, and bracket every request with
// Acquire/Release (the HTTP layer in this package does).
type Registry struct {
	mu       sync.Mutex
	cond     *sync.Cond // signaled when a tenant goes idle (inflight drops to 0)
	capacity int
	used     int
	clock    uint64
	tenants  map[string]*Tenant
	order    []*Tenant // insertion order, for deterministic listings
	def      string    // default tenant ID ("" = none)
	closed   bool
	// settling counts drained tenants not yet settled, so Close also waits
	// for what Remove and Install settle outside the lock.
	settling sync.WaitGroup

	evictions  atomic.Uint64
	rejections atomic.Uint64
	wakes      atomic.Uint64 // re-wakes of previously parked tenants
}

// New creates an empty registry whose resident tenants may hold at most
// capacity replicas in total. capacity must be positive; every Install
// whose Spec asks for more replicas than the whole pool is rejected up
// front.
func New(capacity int) (*Registry, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("registry: pool capacity %d, want >= 1", capacity)
	}
	r := &Registry{capacity: capacity, tenants: make(map[string]*Tenant)}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// Capacity returns the replica pool capacity.
func (r *Registry) Capacity() int { return r.capacity }

// Install builds a serving unit for m and registers it as tenant id,
// replacing an existing tenant of the same ID, which stays the default if
// it was (the replacement drains first: in-flight requests complete on
// the old unit, which is settled once the registry lock is released). The
// new tenant is installed resident when the pool has room — parking
// colder tenants if needed — and parked otherwise, waking on its first
// request. The first installed tenant becomes the default.
func (r *Registry) Install(id string, m *disthd.Model, spec Spec) error {
	if id == "" {
		return fmt.Errorf("registry: empty tenant ID")
	}
	if m == nil {
		return fmt.Errorf("registry: tenant %q needs a model", id)
	}
	sp := spec.withDefaults()
	if sp.Options.Replicas > r.capacity {
		return fmt.Errorf("registry: tenant %q wants %d replicas, pool capacity is %d",
			id, sp.Options.Replicas, r.capacity)
	}
	srv, err := serve.New(m, sp.Options)
	if err != nil {
		return fmt.Errorf("registry: tenant %q: %w", id, err)
	}
	if sp.Learner != nil {
		l, err := serve.NewLearner(srv.Batcher().Swapper(), *sp.Learner)
		if err != nil {
			srv.Batcher().Close()
			return fmt.Errorf("registry: tenant %q learner: %w", id, err)
		}
		srv.AttachLearner(l)
	}
	t := &Tenant{id: id, spec: sp, srv: srv, installed: time.Now()}
	var old *Tenant
	defer func() { r.settle(old) }() // after the Unlock deferred below
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		srv.Batcher().Close()
		return ErrClosed
	}
	// Draining releases the lock, so another Install or a Remove may drop
	// cur first: replace whatever holds the ID once the drain is done.
	for cur := r.tenants[id]; cur != nil; cur = r.tenants[id] {
		if err := r.drainLocked(cur); err != nil {
			srv.Batcher().Close()
			return err
		}
		if r.dropLocked(cur) {
			old = cur
			break
		}
	}
	r.tenants[id] = t
	r.order = append(r.order, t)
	if r.def == "" {
		r.def = id
	}
	// Best-effort residency at install time: a tenant that fits serves its
	// first request without paying the wake; one that doesn't stays parked
	// rather than failing the install.
	_ = r.wakeLocked(t)
	return nil
}

// Remove drains tenant id — new requests get ErrUnknownTenant, in-flight
// ones complete — then parks it, deletes the registration (re-electing a
// default if it was one), and settles it once the registry lock is
// released.
func (r *Registry) Remove(id string) error {
	var dropped *Tenant
	defer func() { r.settle(dropped) }() // after the Unlock deferred below
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	t := r.tenants[id]
	if t == nil || t.removing {
		return ErrUnknownTenant
	}
	if err := r.drainLocked(t); err != nil {
		return err
	}
	if !r.dropLocked(t) {
		return nil // a replacing Install dropped and settles it
	}
	if r.def == id {
		r.def = ""
		if len(r.order) > 0 {
			r.def = r.order[0].id
		}
	}
	dropped = t
	return nil
}

// settle closes the Batcher of t, a drained tenant (nil: none), waits out
// the background retrain its learner may be running, and then lets Close
// return. It runs with the registry lock released: closing joins the
// Batcher's workers, a retrain takes tens of milliseconds, and every
// Acquire would stall behind them. A drained tenant is idle and hidden
// from Acquire, so nothing can start another request or retrain on it.
func (r *Registry) settle(t *Tenant) {
	if t == nil {
		return
	}
	t.srv.Batcher().Close()
	if l := t.srv.Learner(); l != nil {
		l.Wait()
	}
	r.settling.Done()
}

// drainLocked marks t removing (hiding it from Acquire), waits until its
// in-flight requests complete, and parks it; the caller settles t once it
// has released the lock. The registry lock is held; cond.Wait releases it
// while blocked, so traffic to other tenants flows.
func (r *Registry) drainLocked(t *Tenant) error {
	t.removing = true
	for t.inflight > 0 {
		r.cond.Wait()
		if r.closed {
			return ErrClosed
		}
	}
	if t.resident {
		r.parkLocked(t, false)
	}
	return nil
}

// dropLocked deletes a drained tenant's registration and reports whether
// it did; false means another Install or Remove dropped it while this
// caller drained. The dropper settles t once it has released the lock.
func (r *Registry) dropLocked(t *Tenant) bool {
	if r.tenants[t.id] != t {
		return false
	}
	r.settling.Add(1)
	delete(r.tenants, t.id)
	for i, o := range r.order {
		if o == t {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// SetDefault names the tenant the single-model alias routes (/predict,
// /predict_batch, ...) resolve to.
func (r *Registry) SetDefault(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenants[id] == nil {
		return ErrUnknownTenant
	}
	r.def = id
	return nil
}

// Default returns the default tenant ID, "" when none is set.
func (r *Registry) Default() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.def
}

// Acquire resolves id ("" selects the default tenant) to its serving
// unit, waking a parked tenant — evicting colder idle tenants if the pool
// is full — and pins it resident until the matching Release. The
// steady-state call (tenant resident) takes one mutex and allocates
// nothing.
func (r *Registry) Acquire(id string) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if id == "" {
		id = r.def
	}
	t := r.tenants[id]
	if t == nil || t.removing {
		return nil, ErrUnknownTenant
	}
	if !t.resident {
		if err := r.wakeLocked(t); err != nil {
			t.rejected++
			r.rejections.Add(1)
			return nil, err
		}
	}
	t.inflight++
	r.clock++
	t.lastUse = r.clock
	return t, nil
}

// Release unpins a tenant acquired with Acquire.
func (r *Registry) Release(t *Tenant) {
	r.mu.Lock()
	t.inflight--
	if t.inflight == 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// wakeLocked makes t resident by accounting its replicas in the pool,
// parking the least-recently-used idle tenants to make room; it fails
// only with ErrPoolExhausted. It builds nothing: the Batcher leases
// replicas on its next request, from the idle set a park filled.
func (r *Registry) wakeLocked(t *Tenant) error {
	need := t.spec.Options.Replicas
	for r.used+need > r.capacity {
		v := r.victimLocked(t)
		if v == nil {
			return fmt.Errorf("%w: tenant %q needs %d replicas, %d/%d in use and no idle tenant to park",
				ErrPoolExhausted, t.id, need, r.used, r.capacity)
		}
		r.parkLocked(v, true)
	}
	t.resident = true
	r.used += need
	t.wakes++
	if t.wakes > 1 {
		r.wakes.Add(1)
	}
	return nil
}

// victimLocked picks the least-recently-used resident tenant that is idle
// (no in-flight request) and is not exempt. Tenant counts are small, so a
// linear scan beats maintaining an intrusive list.
func (r *Registry) victimLocked(exempt *Tenant) *Tenant {
	var victim *Tenant
	for _, t := range r.order {
		if t == exempt || !t.resident || t.inflight > 0 {
			continue
		}
		if victim == nil || t.lastUse < victim.lastUse {
			victim = t
		}
	}
	return victim
}

// parkLocked takes an idle resident tenant out of the pool: its Batcher
// releases its replicas (all idle, since the tenant has no request in
// flight) and keeps everything else, so a park waits on nothing.
func (r *Registry) parkLocked(t *Tenant, evicted bool) {
	t.srv.Batcher().ReleaseIdle()
	t.resident = false
	r.used -= t.spec.Options.Replicas
	if evicted {
		t.evictions++
		r.evictions.Add(1)
	}
}

// Close drains every tenant and shuts the registry down: in-flight
// requests complete, and then, with the lock released, every tenant's
// Batcher closes and every learner's background retrain is waited out, so
// no worker or retrain goroutine outlives Close. Parked state is kept
// only in memory, and every later operation returns ErrClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	// Closed flips first so a request arriving mid-drain gets ErrClosed
	// (503, the closing-Batcher answer) rather than a misleading 404.
	r.closed = true
	for _, t := range r.order {
		for t.inflight > 0 {
			r.cond.Wait()
		}
		if t.resident {
			r.parkLocked(t, false)
		}
	}
	r.cond.Broadcast()
	tenants := append([]*Tenant(nil), r.order...)
	r.settling.Add(len(tenants))
	r.mu.Unlock()
	for _, t := range tenants {
		r.settle(t)
	}
	r.settling.Wait()
}

// TenantStats is one tenant's row in the aggregate Stats and the
// GET /models listing.
type TenantStats struct {
	// ID is the tenant's model ID.
	ID string `json:"id"`
	// Resident is whether the tenant currently holds pool replicas.
	Resident bool `json:"resident"`
	// Replicas is the tenant's configured replica count (its pool cost
	// while resident).
	Replicas int `json:"replicas"`
	// Inflight is the number of requests holding the tenant right now.
	Inflight int `json:"inflight"`
	// Features, Dim, and Classes give the tenant's model shape — tenants
	// are heterogeneous, which is the point.
	Features int `json:"features"`
	Dim      int `json:"dim"`
	Classes  int `json:"classes"`
	// Quantized is whether the tenant's current model is the 1-bit tier.
	Quantized bool `json:"quantized"`
	// Learning is whether the tenant's spec attaches a learner.
	Learning bool `json:"learning"`
	// Wakes counts times the tenant became resident (install included).
	Wakes uint64 `json:"wakes"`
	// Evictions counts times the tenant was parked to reclaim capacity.
	Evictions uint64 `json:"evictions"`
	// Rejections counts Acquire calls for this tenant answered 429.
	Rejections uint64 `json:"rejections"`
	// InstalledUnix is the wall-clock second the tenant was installed.
	InstalledUnix int64 `json:"installed_unix"`
	// Serve is the tenant's serving snapshot (batcher and wire counters,
	// learner and quantization gauges), parked or resident.
	Serve *serve.Snapshot `json:"serve"`
}

// Stats is the aggregate registry snapshot (`GET /stats` in registry mode
// returns exactly this).
type Stats struct {
	// Capacity and UsedReplicas describe the shared replica pool.
	Capacity     int `json:"capacity"`
	UsedReplicas int `json:"used_replicas"`
	// TenantCount and ResidentCount count registered and resident tenants.
	TenantCount   int `json:"tenants"`
	ResidentCount int `json:"resident"`
	// Evictions counts tenants parked to reclaim capacity (LRU churn).
	Evictions uint64 `json:"evictions"`
	// AdmissionRejections counts Acquire calls answered 429 because the
	// pool was genuinely exhausted.
	AdmissionRejections uint64 `json:"admission_rejections"`
	// Wakes counts re-wakes of previously parked tenants (installs are
	// not counted — churn is what this gauge watches).
	Wakes uint64 `json:"wakes"`
	// DefaultTenant is the ID the single-model alias routes resolve to.
	DefaultTenant string `json:"default_tenant"`
	// PerTenant lists every registered tenant in install order.
	PerTenant []TenantStats `json:"per_tenant"`
}

// Stats assembles the aggregate snapshot. It is safe to call under
// traffic; per-tenant serve snapshots are taken without stopping it.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Capacity:            r.capacity,
		UsedReplicas:        r.used,
		TenantCount:         len(r.order),
		Evictions:           r.evictions.Load(),
		AdmissionRejections: r.rejections.Load(),
		Wakes:               r.wakes.Load(),
		DefaultTenant:       r.def,
		PerTenant:           make([]TenantStats, 0, len(r.order)),
	}
	for _, t := range r.order {
		if t.resident {
			s.ResidentCount++
		}
		s.PerTenant = append(s.PerTenant, r.tenantStatsLocked(t))
	}
	return s
}

// tenantStatsLocked builds one tenant's stats row.
func (r *Registry) tenantStatsLocked(t *Tenant) TenantStats {
	snap := t.srv.Stats()
	m := t.srv.Batcher().Model()
	return TenantStats{
		ID:            t.id,
		Resident:      t.resident,
		Replicas:      t.spec.Options.Replicas,
		Inflight:      t.inflight,
		Features:      m.Features(),
		Dim:           m.Dim(),
		Classes:       m.Classes(),
		Quantized:     m.Quantized(),
		Learning:      t.spec.Learner != nil,
		Wakes:         t.wakes,
		Evictions:     t.evictions,
		Rejections:    t.rejected,
		InstalledUnix: t.installed.Unix(),
		Serve:         &snap,
	}
}

// TenantStats returns one tenant's stats row, for /t/{model}/stats-style
// queries about a parked tenant (a resident tenant's serve snapshot is
// usually read through its Server instead).
func (r *Registry) TenantStats(id string) (TenantStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		id = r.def
	}
	t := r.tenants[id]
	if t == nil || t.removing {
		return TenantStats{}, ErrUnknownTenant
	}
	return r.tenantStatsLocked(t), nil
}
