//! Max-min fair fluid bandwidth sharing.
//!
//! A [`FluidPool`] holds a set of capacitated **links** (network links, a
//! socket's memory controller, a NIC injection port, a disk channel) and a
//! set of active **flows**. Each flow moves a volume across a route (a set of
//! links) and may carry its own rate cap (the demand limit of the producing
//! core). Whenever the flow set changes, rates are recomputed by progressive
//! filling (water-filling), the classic max-min fair allocation also used by
//! SimGrid-style platform simulators:
//!
//! 1. all flows start unfrozen with rate 0;
//! 2. find the bottleneck: the smallest of (a) `residual(link) / unfrozen(link)`
//!    over saturated-able links and (b) the smallest unfrozen flow cap;
//! 3. freeze the constrained flows at that level, subtract from residuals;
//! 4. repeat until every flow is frozen.
//!
//! ## Scaling design
//!
//! The pool is built so that a flow arrival or departure costs work
//! proportional to the traffic it actually interacts with, not to the whole
//! pool:
//!
//! * **Slab storage.** Flows live in a `Vec<Option<Flow>>` with a free list;
//!   each link keeps an adjacency list of the active flow slots crossing it.
//!   No hash maps anywhere on the hot path.
//! * **Component-local rebalancing.** When a flow starts or ends, only the
//!   connected component of links/flows reachable from its route is
//!   re-water-filled. Disjoint traffic is left completely untouched — its
//!   rates, volumes, and scheduled completion events stay as they are.
//!   (Max-min allocations of disjoint components are independent, so this is
//!   exact, not an approximation.) A rebalance never walks the whole slab.
//! * **Lazy volume bookkeeping.** A flow stores its remaining volume as of
//!   `last_update` together with its rate, and its volume is brought forward
//!   only when the flow is touched: when a rebalance reaches its component,
//!   or when it completes or is cancelled. Per-link `carried` totals are
//!   settled at the same moments, so they are exact once every flow has
//!   finished.
//! * **Allocation-free water-fill.** The solver reuses per-pool scratch
//!   buffers (residual capacity, unfrozen-user counters, per-flow rates,
//!   stamp-based visited marks) across calls; a rebalance performs no heap
//!   allocation.
//! * **Completion events survive no-op rebalances.** A completion event is
//!   invalidated (generation bump) and re-queued only when the flow's rate —
//!   and hence its finish estimate — actually moved. Flows whose rate came
//!   out unchanged keep their live event, so the executor's heap does not
//!   fill with dead entries. [`FluidPool::rebalance_stats`] exposes counters
//!   for all of this.
//!
//! Within a component, flows are processed in arrival (`uid`) order, so the
//! floating-point arithmetic and event-scheduling order are deterministic
//! and identical to a global recomputation restricted to that component.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{EventAction, FlowSourceId, SimHandle};
use crate::time::{SimDuration, SimTime};

/// Identifies a link within one [`FluidPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) usize);

/// Bytes below which a flow is considered drained (guards float round-off).
const VOLUME_EPS: f64 = 1e-6;

struct Link {
    capacity: f64, // bytes/s
    /// Cumulative bytes carried (for utilization reports). A flow's bytes
    /// are credited when the flow is touched (rebalanced, completed or
    /// cancelled), so the total lags while flows crossing the link are
    /// mid-transfer and is exact once every flow has finished.
    carried: f64,
    /// Slab slots of the *active* (not yet completed) flows crossing this
    /// link — the adjacency index component discovery walks.
    flows: Vec<usize>,
}

struct Flow {
    /// Monotone arrival id. Orders water-fill arithmetic deterministically
    /// and protects [`Transfer`] handles against slab-slot reuse.
    uid: u64,
    route: Box<[LinkId]>,
    remaining: f64,
    rate: f64,
    cap: f64,
    last_update: SimTime,
    /// Bumped whenever a new completion event is scheduled; a firing event
    /// with a stale generation is ignored.
    generation: u64,
    /// Instant of the currently scheduled completion event. A rebalance that
    /// leaves both the rate and this instant unchanged keeps the event live.
    eta: SimTime,
    waker: Option<Waker>,
    done: bool,
}

/// Counters describing how much work the incremental rebalancer did.
///
/// See EXPERIMENTS.md ("Profiling the simulator") for how to read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Component-local rebalances run (flow starts, completions, cancels).
    pub rebalances: u64,
    /// Flows whose rate was recomputed, summed over all rebalances.
    pub flows_touched: u64,
    /// Completion events (re)scheduled because a flow's rate moved.
    pub reschedules: u64,
    /// Flows whose recomputed rate was unchanged: their live completion
    /// event was kept instead of being invalidated and re-queued.
    pub reschedules_avoided: u64,
    /// Largest connected component (in flows) rebalanced so far.
    pub max_component: u64,
}

/// Reusable scratch for component discovery and water-filling. All vectors
/// are retained across rebalances so the steady state allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Current visit stamp; bumping it invalidates every mark in O(1).
    stamp: u64,
    /// Per-link visit stamp (indexed by link id).
    link_stamp: Vec<u64>,
    /// Per-flow-slot visit stamp.
    flow_stamp: Vec<u64>,
    /// Per-flow-slot freeze stamp (== `stamp` once the flow's rate is set).
    rate_stamp: Vec<u64>,
    /// Per-flow-slot computed rate (valid where `rate_stamp == stamp`).
    rate_of: Vec<f64>,
    /// Links of the current component (link ids).
    comp_links: Vec<usize>,
    /// Flows of the current component (slab slots), sorted by `uid`.
    comp_flows: Vec<usize>,
    /// Residual capacity per link (valid for `comp_links` only).
    residual: Vec<f64>,
    /// Unfrozen-user count per link (valid for `comp_links` only).
    users: Vec<usize>,
    /// Work list: links whose adjacency is still to be expanded.
    pending_links: Vec<usize>,
    /// Water-fill working set of unfrozen flow slots.
    unfrozen: Vec<usize>,
    /// Flows frozen in the current round.
    frozen_round: Vec<usize>,
}

struct PoolInner {
    links: Vec<Link>,
    /// Flow slab; `None` slots are free (tracked in `free`).
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
    next_uid: u64,
    /// Active (not done, not cancelled) flow count.
    active: usize,
    scratch: Scratch,
    stats: RebalanceStats,
}

/// A shared pool of capacitated links with max-min fair flows.
#[derive(Clone)]
pub struct FluidPool {
    handle: SimHandle,
    /// Executor flow-source id: orders this pool's same-instant completion
    /// events at the position of its latest rebalance.
    source: FlowSourceId,
    inner: Rc<RefCell<PoolInner>>,
}

impl FluidPool {
    /// Create an empty pool.
    pub fn new(handle: SimHandle) -> Self {
        let source = handle.core.register_flow_source();
        FluidPool {
            handle,
            source,
            inner: Rc::new(RefCell::new(PoolInner {
                links: Vec::new(),
                flows: Vec::new(),
                free: Vec::new(),
                next_uid: 0,
                active: 0,
                scratch: Scratch::default(),
                stats: RebalanceStats::default(),
            })),
        }
    }

    /// Add a link with `capacity` bytes/s; returns its id.
    pub fn add_link(&self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0, "link capacity must be positive");
        let mut inner = self.inner.borrow_mut();
        inner.links.push(Link {
            capacity,
            carried: 0.0,
            flows: Vec::new(),
        });
        let n = inner.links.len();
        inner.scratch.link_stamp.resize(n, 0);
        inner.scratch.residual.resize(n, 0.0);
        inner.scratch.users.resize(n, 0);
        LinkId(n - 1)
    }

    /// Number of links in the pool.
    pub fn link_count(&self) -> usize {
        self.inner.borrow().links.len()
    }

    /// Cumulative bytes carried over `link`, as settled so far: bytes of a
    /// flow still in transfer are credited when the flow is next touched,
    /// and the total is exact once every flow has finished.
    pub fn carried(&self, link: LinkId) -> f64 {
        self.inner.borrow().links[link.0].carried
    }

    /// Number of currently active (unfinished) flows.
    pub fn active_flows(&self) -> usize {
        self.inner.borrow().active
    }

    /// Work counters of the incremental rebalancer.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.inner.borrow().stats
    }

    /// Start a transfer of `volume` bytes across `route`, optionally capped
    /// at `rate_cap` bytes/s; resolves when the last byte arrives.
    ///
    /// A zero/negative volume or an empty route completes immediately.
    pub fn transfer(&self, route: &[LinkId], volume: f64, rate_cap: Option<f64>) -> Transfer {
        if volume <= VOLUME_EPS || route.is_empty() {
            return Transfer {
                pool: self.clone(),
                flow: None,
            };
        }
        let cap = rate_cap.unwrap_or(f64::INFINITY);
        assert!(cap > 0.0, "rate cap must be positive");
        let now = self.handle.now();
        let (slot, uid) = {
            let mut inner = self.inner.borrow_mut();
            for l in route {
                assert!(l.0 < inner.links.len(), "unknown link {l:?}");
            }
            let uid = inner.next_uid;
            inner.next_uid += 1;
            let flow = Flow {
                uid,
                route: route.to_vec().into_boxed_slice(),
                remaining: volume,
                rate: 0.0,
                cap,
                last_update: now,
                generation: 0,
                eta: now,
                waker: None,
                done: false,
            };
            let slot = match inner.free.pop() {
                Some(s) => {
                    inner.flows[s] = Some(flow);
                    s
                }
                None => {
                    inner.flows.push(Some(flow));
                    inner.flows.len() - 1
                }
            };
            let n = inner.flows.len();
            inner.scratch.flow_stamp.resize(n, 0);
            inner.scratch.rate_stamp.resize(n, 0);
            inner.scratch.rate_of.resize(n, 0.0);
            for l in route {
                inner.links[l.0].flows.push(slot);
            }
            inner.active += 1;
            // One live completion event per active flow: pre-size the event
            // queue so a burst of arrivals does not re-grow it repeatedly.
            self.handle.core.reserve_events(inner.active);
            (slot, uid)
        };
        self.rebalance_around(slot);
        Transfer {
            pool: self.clone(),
            flow: Some((slot, uid)),
        }
    }

    /// Recompute rates for the connected component containing `seed_slot`'s
    /// route, advance that component's volumes to `now`, and (re)schedule
    /// completion events for exactly the flows whose rate moved.
    ///
    /// `seed_slot` must be a valid slab slot; the flow itself participates
    /// only if it is still linked into the adjacency index (i.e. active).
    fn rebalance_around(&self, seed_slot: usize) {
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let (links, flows, scratch) = (&mut inner.links, &mut inner.flows, &mut inner.scratch);
        inner.stats.rebalances += 1;
        // Every rebalance moves this pool's pending completion events behind
        // all ordinary events scheduled so far at their instants (the
        // same-instant order the model keeps; see the executor's `Bucket`).
        // One counter bump replaces O(flows) heap churn.
        self.handle.core.touch_flow_source(self.source);

        // --- 1. discover the connected component (stamp-marked BFS) -------
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.comp_links.clear();
        scratch.comp_flows.clear();
        scratch.pending_links.clear();
        {
            let seed = flows[seed_slot].as_ref().expect("seed flow exists");
            for l in seed.route.iter() {
                if scratch.link_stamp[l.0] != stamp {
                    scratch.link_stamp[l.0] = stamp;
                    scratch.residual[l.0] = links[l.0].capacity;
                    scratch.users[l.0] = 0;
                    scratch.comp_links.push(l.0);
                    scratch.pending_links.push(l.0);
                }
            }
        }
        while let Some(l) = scratch.pending_links.pop() {
            for idx in 0..links[l].flows.len() {
                let slot = links[l].flows[idx];
                if scratch.flow_stamp[slot] == stamp {
                    continue;
                }
                scratch.flow_stamp[slot] = stamp;
                scratch.comp_flows.push(slot);
                let f = flows[slot].as_ref().expect("linked flow exists");
                for l2 in f.route.iter() {
                    if scratch.link_stamp[l2.0] != stamp {
                        scratch.link_stamp[l2.0] = stamp;
                        scratch.residual[l2.0] = links[l2.0].capacity;
                        scratch.users[l2.0] = 0;
                        scratch.comp_links.push(l2.0);
                        scratch.pending_links.push(l2.0);
                    }
                    scratch.users[l2.0] += 1;
                }
            }
        }
        // Arrival order: keeps the water-fill arithmetic and the event
        // scheduling order independent of slab slot reuse.
        scratch
            .comp_flows
            .sort_unstable_by_key(|&s| flows[s].as_ref().expect("component flow").uid);
        inner.stats.flows_touched += scratch.comp_flows.len() as u64;
        inner.stats.max_component = inner.stats.max_component.max(scratch.comp_flows.len() as u64);

        // --- 2. advance component volumes to `now` ------------------------
        for &slot in &scratch.comp_flows {
            let f = flows[slot].as_mut().expect("component flow");
            let dt = now.duration_since(f.last_update).as_secs_f64();
            if dt > 0.0 && f.rate > 0.0 {
                let moved = f.rate * dt;
                f.remaining = (f.remaining - moved).max(0.0);
                for l in f.route.iter() {
                    links[l.0].carried += moved;
                }
            }
            f.last_update = now;
        }

        // --- 3. progressive filling over the component --------------------
        scratch.unfrozen.clear();
        scratch.unfrozen.extend_from_slice(&scratch.comp_flows);
        while !scratch.unfrozen.is_empty() {
            // Bottleneck level: min over links of residual/users, min cap.
            let mut level = f64::INFINITY;
            for &l in &scratch.comp_links {
                let users = scratch.users[l];
                if users > 0 {
                    level = level.min(scratch.residual[l] / users as f64);
                }
            }
            for &slot in &scratch.unfrozen {
                level = level.min(flows[slot].as_ref().expect("unfrozen flow").cap);
            }
            debug_assert!(level.is_finite() && level >= 0.0);
            // Freeze every flow constrained at this level: those whose cap
            // == level or that cross a link whose fair share == level.
            scratch.frozen_round.clear();
            for &slot in &scratch.unfrozen {
                let f = flows[slot].as_ref().expect("unfrozen flow");
                let capped = f.cap <= level * (1.0 + 1e-12);
                let bottlenecked = f.route.iter().any(|l| {
                    let users = scratch.users[l.0];
                    users > 0 && scratch.residual[l.0] / users as f64 <= level * (1.0 + 1e-12)
                });
                if capped || bottlenecked {
                    scratch.frozen_round.push(slot);
                }
            }
            debug_assert!(
                !scratch.frozen_round.is_empty(),
                "water-filling must progress"
            );
            for &slot in &scratch.frozen_round {
                let f = flows[slot].as_ref().expect("frozen flow");
                let rate = level.min(f.cap);
                scratch.rate_of[slot] = rate;
                scratch.rate_stamp[slot] = stamp;
                for l in f.route.iter() {
                    scratch.residual[l.0] = (scratch.residual[l.0] - rate).max(0.0);
                    scratch.users[l.0] -= 1;
                }
            }
            let rate_stamp = &scratch.rate_stamp;
            scratch.unfrozen.retain(|&s| rate_stamp[s] != stamp);
        }

        // --- 4. apply rates; (re)schedule only what moved ------------------
        for &slot in &scratch.comp_flows {
            let f = flows[slot].as_mut().expect("component flow");
            let new_rate = scratch.rate_of[slot];
            if f.remaining <= VOLUME_EPS {
                // Numerically drained: complete at the current instant.
                f.rate = new_rate;
                f.generation += 1;
                f.eta = now;
                inner.stats.reschedules += 1;
                self.schedule_completion(slot, f.uid, f.generation, now);
            } else {
                // Recomputing the finish estimate from the freshly advanced
                // remaining volume is not always bit-stable: even at an
                // unchanged rate, `(rem - rate*dt)/rate` can ceil to a
                // different picosecond than the original `rem/rate` did.
                // The goldens bake in that recomputation for component
                // flows, so the live event is kept only when both the rate
                // and the rounded instant are unchanged.
                let eta = now + SimDuration::from_secs_f64(f.remaining / new_rate);
                if new_rate != f.rate || eta != f.eta {
                    f.rate = new_rate;
                    f.generation += 1;
                    f.eta = eta;
                    inner.stats.reschedules += 1;
                    self.schedule_completion(slot, f.uid, f.generation, eta);
                } else {
                    // Unchanged finish instant: the previously scheduled
                    // completion event remains valid.
                    inner.stats.reschedules_avoided += 1;
                }
            }
            // rate == 0 with volume left cannot happen: every flow gets a
            // positive share because link capacities are positive.
        }
        // Flows outside the component are not visited: their rates cannot
        // change (see the oracle proptest), so their `(remaining,
        // last_update)` pair and live completion event stay exact until a
        // rebalance, completion or cancel touches them and settles the
        // volume from `last_update`.
    }

    fn schedule_completion(&self, slot: usize, uid: u64, gen: u64, at: SimTime) {
        let pool = self.clone();
        self.handle.core.schedule_flow(
            at,
            self.source,
            uid,
            EventAction::Call(Box::new(move || pool.on_completion(slot, uid, gen))),
        );
    }

    fn on_completion(&self, slot: usize, uid: u64, gen: u64) {
        let now = self.handle.now();
        let waker = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(f) = inner.flows[slot].as_mut() else {
                return; // flow gone: stale event
            };
            if f.uid != uid || f.generation != gen || f.done {
                return; // superseded by a reschedule, or already finished
            }
            // Settle volume as of now; the flow should be (numerically) drained.
            let dt = now.duration_since(f.last_update).as_secs_f64();
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            for l in f.route.iter() {
                inner.links[l.0].carried += moved;
            }
            f.last_update = now;
            if f.remaining > VOLUME_EPS {
                // Completion fired fractionally early due to ps rounding;
                // re-arm for the residual. Rates are unaffected (no flow-set
                // change), so only this flow's event is refreshed — but the
                // pool still re-sequences, as a full rebalance would have.
                f.generation += 1;
                let eta = now + SimDuration::from_secs_f64(f.remaining / f.rate);
                f.eta = eta;
                inner.stats.reschedules += 1;
                self.handle.core.touch_flow_source(self.source);
                self.schedule_completion(slot, uid, f.generation, eta);
                return;
            }
            f.done = true;
            f.remaining = 0.0;
            let w = f.waker.take();
            Self::unlink(&mut inner.links, &inner.flows, slot);
            inner.active -= 1;
            w
        };
        if let Some(w) = waker {
            w.wake();
        }
        // The finished flow frees its bandwidth: rebalance its component
        // (the flow itself is unlinked, so it no longer participates).
        self.rebalance_around(slot);
    }

    /// Remove `slot` from the adjacency list of every link on its route.
    fn unlink(links: &mut [Link], flows: &[Option<Flow>], slot: usize) {
        let f = flows[slot].as_ref().expect("flow being unlinked");
        for l in f.route.iter() {
            let lf = &mut links[l.0].flows;
            let pos = lf
                .iter()
                .position(|&s| s == slot)
                .expect("flow registered on its links");
            lf.swap_remove(pos);
        }
    }

    /// Cancel the transfer identified by `(slot, uid)` (dropped before
    /// completion) or release its finished record. Cancelling an
    /// already-completed flow frees the slab slot and does **not** trigger
    /// a rebalance — the bandwidth was already released at completion.
    fn cancel(&self, slot: usize, uid: u64) {
        let live = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(f) = inner.flows[slot].as_mut() else {
                return;
            };
            if f.uid != uid {
                return;
            }
            if f.done {
                inner.flows[slot] = None;
                inner.free.push(slot);
                false
            } else {
                // Account the bytes moved so far, then withdraw the flow.
                let dt = now_dt(f.last_update, self.handle.now());
                if dt > 0.0 && f.rate > 0.0 {
                    let moved = (f.rate * dt).min(f.remaining);
                    f.remaining -= moved;
                    for l in f.route.iter() {
                        inner.links[l.0].carried += moved;
                    }
                }
                f.last_update = self.handle.now();
                f.done = true;
                Self::unlink(&mut inner.links, &inner.flows, slot);
                inner.active -= 1;
                true
            }
        };
        if live {
            // Remaining flows in the component speed up; recompute them.
            self.rebalance_around(slot);
            let mut inner = self.inner.borrow_mut();
            inner.flows[slot] = None;
            inner.free.push(slot);
        }
    }
}

#[inline]
fn now_dt(last: SimTime, now: SimTime) -> f64 {
    now.duration_since(last).as_secs_f64()
}

/// Future returned by [`FluidPool::transfer`].
pub struct Transfer {
    pool: FluidPool,
    /// `(slab slot, flow uid)`; the uid guards against slot reuse.
    flow: Option<(usize, u64)>,
}

impl Future for Transfer {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let Some((slot, uid)) = self.flow else {
            return Poll::Ready(());
        };
        let finished = {
            let mut inner = self.pool.inner.borrow_mut();
            let inner = &mut *inner;
            match inner.flows[slot].as_mut() {
                Some(flow) if flow.uid == uid && flow.done => {
                    // Fully drained: free the flow record.
                    inner.flows[slot] = None;
                    inner.free.push(slot);
                    true
                }
                Some(flow) if flow.uid == uid => {
                    flow.waker = Some(cx.waker().clone());
                    false
                }
                // Slot reused or already released.
                _ => true,
            }
        };
        if finished {
            self.get_mut().flow = None;
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

impl Drop for Transfer {
    fn drop(&mut self) {
        // Cancelling a pending transfer releases its bandwidth; dropping an
        // already-completed one only frees the record (no rebalance).
        if let Some((slot, uid)) = self.flow.take() {
            self.pool.cancel(slot, uid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    fn run_transfers(
        caps: &[f64],
        // (route, volume, cap, start_delay_us)
        jobs: &[(&[usize], f64, Option<f64>, u64)],
    ) -> Vec<f64> {
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let links: Vec<LinkId> = caps.iter().map(|&c| pool.add_link(c)).collect();
        let ends: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, (route, vol, cap, delay)) in jobs.iter().enumerate() {
            let pool = pool.clone();
            let route: Vec<LinkId> = route.iter().map(|&r| links[r]).collect();
            let ends = Rc::clone(&ends);
            let h = sim.handle();
            let (vol, cap, delay) = (*vol, *cap, *delay);
            sim.spawn(async move {
                h.sleep(SimDuration::from_us(delay)).await;
                pool.transfer(&route, vol, cap).await;
                ends.borrow_mut().push((i, h.now().as_secs_f64()));
            });
        }
        sim.run();
        let mut out = vec![0.0; jobs.len()];
        for (i, t) in ends.borrow().iter() {
            out[*i] = *t;
        }
        out
    }

    #[test]
    fn single_flow_full_capacity() {
        // 1000 bytes over a 1000 B/s link: exactly 1 second.
        let ends = run_transfers(&[1000.0], &[(&[0], 1000.0, None, 0)]);
        assert!((ends[0] - 1.0).abs() < 1e-9, "{}", ends[0]);
    }

    #[test]
    fn two_flows_share_evenly() {
        // Two identical flows on one link finish together in twice the time.
        let ends = run_transfers(
            &[1000.0],
            &[(&[0], 1000.0, None, 0), (&[0], 1000.0, None, 0)],
        );
        assert!((ends[0] - 2.0).abs() < 1e-6);
        assert!((ends[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn late_joiner_slows_first_flow() {
        // Flow A: 1000 B alone for 0.5 s (500 done), then shares: 500 left at
        // 500 B/s => +1 s => ends at 1.5 s. Flow B: starts at 0.5, runs at 500
        // until A ends (500 done at t=1.5), then 500 left at full speed => 2.0 s.
        let ends = run_transfers(
            &[1000.0],
            &[(&[0], 1000.0, None, 0), (&[0], 1000.0, None, 500_000)],
        );
        assert!((ends[0] - 1.5).abs() < 1e-6, "A={}", ends[0]);
        assert!((ends[1] - 2.0).abs() < 1e-6, "B={}", ends[1]);
    }

    #[test]
    fn rate_cap_binds_below_fair_share() {
        // Capped flow at 100 B/s on a 1000 B/s link leaves 900 for the other.
        let ends = run_transfers(
            &[1000.0],
            &[
                (&[0], 100.0, Some(100.0), 0), // 1 s
                (&[0], 900.0, None, 0),        // 900/900 = 1 s
            ],
        );
        assert!((ends[0] - 1.0).abs() < 1e-6);
        assert!((ends[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multi_link_route_bottleneck() {
        // Route crosses a fast then a slow link; slow one binds.
        let ends = run_transfers(&[10_000.0, 1000.0], &[(&[0, 1], 1000.0, None, 0)]);
        assert!((ends[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_traffic_on_one_link_only() {
        // Flow A uses links 0+1; flow B uses link 1 only. Link 1 (1000 B/s) is
        // shared 500/500; link 0 has slack.
        let ends = run_transfers(
            &[10_000.0, 1000.0],
            &[(&[0, 1], 500.0, None, 0), (&[1], 500.0, None, 0)],
        );
        assert!((ends[0] - 1.0).abs() < 1e-6, "{:?}", ends);
        assert!((ends[1] - 1.0).abs() < 1e-6, "{:?}", ends);
    }

    #[test]
    fn water_fill_redistributes_capped_slack() {
        // Link 1000 B/s, flow A capped at 200, flow B uncapped -> B gets 800.
        let ends = run_transfers(
            &[1000.0],
            &[
                (&[0], 200.0, Some(200.0), 0), // 1 s
                (&[0], 800.0, None, 0),        // 1 s at 800 B/s
            ],
        );
        assert!((ends[0] - 1.0).abs() < 1e-6);
        assert!((ends[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn carried_accounting() {
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1000.0);
        let p2 = pool.clone();
        sim.spawn(async move {
            p2.transfer(&[l], 1234.0, None).await;
        });
        sim.run();
        assert!((pool.carried(l) - 1234.0).abs() < 1e-3);
    }

    #[test]
    fn zero_volume_completes_instantly() {
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1.0);
        let h = sim.handle();
        sim.spawn(async move {
            pool.transfer(&[l], 0.0, None).await;
            assert_eq!(h.now(), SimTime::ZERO);
        });
        sim.run();
    }

    #[test]
    fn cancelled_transfer_releases_bandwidth() {
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1000.0);
        let h = sim.handle();
        let p1 = pool.clone();
        // Holder: starts a huge transfer, abandons it at t=1s.
        sim.spawn(async move {
            let tr = p1.transfer(&[l], 1.0e9, None);
            let sleep = h.sleep(SimDuration::from_secs_f64(1.0));
            // Race the transfer against the timer; the timer wins.
            futures_select(tr, sleep).await;
        });
        let h2 = sim.handle();
        let p2 = pool.clone();
        let end = Rc::new(RefCell::new(0.0));
        let e2 = Rc::clone(&end);
        sim.spawn(async move {
            h2.sleep(SimDuration::from_secs_f64(1.0)).await;
            // After the holder is gone we get the full link: 1000 B in 1 s.
            p2.transfer(&[l], 1000.0, None).await;
            *e2.borrow_mut() = h2.now().as_secs_f64();
        });
        sim.run();
        assert!((*end.borrow() - 2.0).abs() < 1e-6, "{}", end.borrow());
    }

    /// Minimal 2-future select used by the cancellation test.
    async fn futures_select<A: Future + Unpin, B: Future + Unpin>(a: A, b: B) {
        struct Select<A, B>(A, B);
        impl<A: Future + Unpin, B: Future + Unpin> Future for Select<A, B> {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if Pin::new(&mut self.0).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
                if Pin::new(&mut self.1).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
                Poll::Pending
            }
        }
        Select(a, b).await
    }

    // ------------------------------------------------ incremental-specific

    #[test]
    fn disjoint_traffic_is_untouched() {
        // Flows on link 0 and link 1 never share a link: starting/finishing
        // one must not touch (advance, re-rate, or reschedule) the other.
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let a = pool.add_link(1000.0);
        let b = pool.add_link(1000.0);
        let p1 = pool.clone();
        sim.spawn(async move {
            p1.transfer(&[a], 2000.0, None).await;
        });
        let p2 = pool.clone();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_secs_f64(0.5)).await;
            p2.transfer(&[b], 500.0, None).await;
        });
        sim.run();
        let st = pool.rebalance_stats();
        // 4 rebalances (2 starts + 2 completions). Each start touches only
        // its own flow; each completion unlinks the finished flow first and
        // then finds its component empty, so nothing else is ever advanced,
        // re-rated, or rescheduled.
        assert_eq!(st.rebalances, 4, "{st:?}");
        assert_eq!(st.flows_touched, 2, "{st:?}");
        assert_eq!(st.max_component, 1, "{st:?}");
    }

    #[test]
    fn churn_leaves_disjoint_flow_state_alone() {
        // A long flow on link b; completing and cancelled flows churn on
        // link a. No rebalance on a may advance, re-rate or reschedule the
        // flow on b: its stored volume, `last_update` and generation stay
        // as they were set at its start, and the completion event scheduled
        // then is the one that fires.
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let a = pool.add_link(1000.0);
        let b = pool.add_link(1000.0);
        let (p, h) = (pool.clone(), sim.handle());
        sim.spawn(async move {
            let tr = p.transfer(&[b], 10_000.0, None); // alone on b: ends at 10 s
            let (slot, uid) = tr.flow.expect("live flow");
            let state = |p: &FluidPool| {
                let inner = p.inner.borrow();
                let f = inner.flows[slot].as_ref().expect("flow record");
                assert_eq!(f.uid, uid);
                (f.remaining, f.last_update, f.generation, f.eta, f.done)
            };
            let ten_s = SimTime::from_ps(10 * crate::time::PS_PER_SEC);
            let start = state(&p);
            assert_eq!(start, (10_000.0, SimTime::ZERO, 1, ten_s, false));
            // After the churn on a has drained (it ends at 3.5 s).
            h.sleep(SimDuration::from_secs_f64(6.0)).await;
            assert_eq!(state(&p), start, "churn on a touched the flow on b");
            assert_eq!(p.carried(b), 0.0, "bytes of an untouched flow are settled lazily");
            // Past the finish: the generation-1 event fired at its instant.
            h.sleep(SimDuration::from_secs_f64(5.0)).await;
            let (remaining, last_update, generation, _, done) = state(&p);
            assert!(done && remaining == 0.0);
            assert_eq!((last_update, generation), (ten_s, 1));
            drop(tr);
        });
        // Churn on a: 20 back-to-back 100 B transfers that complete, next
        // to ten 1000 B transfers each cancelled after 0.3 s. The link is
        // busy without a gap from 0 until the last completion at 3.5 s.
        let (p, h) = (pool.clone(), sim.handle());
        let last_end = Rc::new(RefCell::new(0.0));
        let end = Rc::clone(&last_end);
        sim.spawn(async move {
            for _ in 0..20 {
                p.transfer(&[a], 100.0, None).await;
            }
            *end.borrow_mut() = h.now().as_secs_f64();
        });
        let (p, h) = (pool.clone(), sim.handle());
        sim.spawn(async move {
            for _ in 0..10 {
                let tr = p.transfer(&[a], 1000.0, None);
                futures_select(tr, h.sleep(SimDuration::from_secs_f64(0.3))).await;
            }
        });
        sim.run();
        let last_end = *last_end.borrow();
        assert!((last_end - 3.5).abs() < 1e-9, "{last_end}");
        // Every byte counted exactly once: a saturated link carries its
        // capacity times its busy time, and the long flow its volume.
        assert!((pool.carried(a) - 1000.0 * last_end).abs() < 1e-6, "{}", pool.carried(a));
        assert!((pool.carried(b) - 10_000.0).abs() < 1e-9, "{}", pool.carried(b));
        assert_eq!(pool.active_flows(), 0);
    }

    #[test]
    fn unchanged_rate_keeps_completion_event_live() {
        // Flow A is capped far below fair share. Flow B joining (and leaving)
        // the shared link never changes A's rate, so A's completion event
        // must never be invalidated/re-queued by B's rebalances.
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1000.0);
        let p1 = pool.clone();
        sim.spawn(async move {
            // 100 B/s for 1000 B: finishes at t = 10 s, long after B.
            p1.transfer(&[l], 1000.0, Some(100.0)).await;
        });
        let p2 = pool.clone();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_secs_f64(1.0)).await;
            p2.transfer(&[l], 900.0, None).await; // 1 s at 900 B/s
        });
        let end = sim.run().as_secs_f64();
        assert!((end - 10.0).abs() < 1e-6, "{end}");
        let st = pool.rebalance_stats();
        // B's start and B's completion both recompute A's rate but leave it
        // at the cap: two avoided reschedules, and A's original completion
        // event (scheduled at t=0) is the one that finally fires at t=10.
        assert_eq!(st.reschedules_avoided, 2, "{st:?}");
        // Exactly two events were ever scheduled: A's initial and B's initial.
        assert_eq!(st.reschedules, 2, "{st:?}");
    }

    #[test]
    fn cancel_after_completion_is_a_noop() {
        // Dropping a Transfer whose flow already completed must not trigger
        // any rebalance (the bandwidth was released at completion time).
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1000.0);
        let p1 = pool.clone();
        let h = sim.handle();
        sim.spawn(async move {
            let tr = p1.transfer(&[l], 1000.0, None); // finishes at t=1s
            h.sleep(SimDuration::from_secs_f64(2.0)).await;
            let before = p1.rebalance_stats().rebalances;
            drop(tr); // flow long done: must be a pure slot release
            assert_eq!(p1.rebalance_stats().rebalances, before);
        });
        sim.run();
        assert!((pool.carried(l) - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn slab_slots_are_reused_without_confusion() {
        // Many short sequential transfers must recycle slots, and stale
        // completion events must never touch a successor flow.
        let mut sim = Sim::new(0);
        let pool = FluidPool::new(sim.handle());
        let l = pool.add_link(1.0e6);
        let p = pool.clone();
        sim.spawn(async move {
            for i in 0..100u64 {
                p.transfer(&[l], 1000.0 + i as f64, None).await;
            }
        });
        sim.run();
        let inner = pool.inner.borrow();
        assert!(
            inner.flows.len() <= 2,
            "sequential transfers must reuse slots, slab grew to {}",
            inner.flows.len()
        );
        assert_eq!(inner.active, 0);
    }

    // ------------------------------------------------------- oracle checks

    /// The original global progressive-filling algorithm (hash-map based),
    /// kept verbatim as the oracle: incremental component-local rates must
    /// match it on every probe.
    fn oracle_water_fill(
        links: &[(f64, ())],
        flows: &HashMap<u64, (Vec<usize>, f64)>, // uid -> (route, cap)
    ) -> HashMap<u64, f64> {
        let mut active: Vec<u64> = flows.keys().copied().collect();
        active.sort_unstable();
        let mut rates: HashMap<u64, f64> = HashMap::with_capacity(active.len());
        let mut used: HashMap<usize, (f64, usize)> = HashMap::new();
        for &id in &active {
            for &l in &flows[&id].0 {
                let e = used.entry(l).or_insert((links[l].0, 0));
                e.1 += 1;
            }
        }
        let mut unfrozen: Vec<u64> = active.clone();
        while !unfrozen.is_empty() {
            let mut level = f64::INFINITY;
            for (_, &(residual, users)) in used.iter() {
                if users > 0 {
                    level = level.min(residual / users as f64);
                }
            }
            for &id in &unfrozen {
                level = level.min(flows[&id].1);
            }
            let mut frozen_this_round: Vec<u64> = Vec::new();
            for &id in &unfrozen {
                let (route, cap) = &flows[&id];
                let capped = *cap <= level * (1.0 + 1e-12);
                let bottlenecked = route.iter().any(|l| {
                    let (residual, users) = used[l];
                    users > 0 && residual / users as f64 <= level * (1.0 + 1e-12)
                });
                if capped || bottlenecked {
                    frozen_this_round.push(id);
                }
            }
            assert!(!frozen_this_round.is_empty(), "oracle must progress");
            for &id in &frozen_this_round {
                let rate = level.min(flows[&id].1);
                rates.insert(id, rate);
                for &l in &flows[&id].0 {
                    let e = used.get_mut(&l).expect("link registered");
                    e.0 = (e.0 - rate).max(0.0);
                    e.1 -= 1;
                }
            }
            unfrozen.retain(|id| !rates.contains_key(id));
        }
        rates
    }

    /// Snapshot of the pool's active flows: (uid, route, cap, current rate).
    fn snapshot(pool: &FluidPool) -> Vec<(u64, Vec<usize>, f64, f64)> {
        let inner = pool.inner.borrow();
        let mut out: Vec<_> = inner
            .flows
            .iter()
            .flatten()
            .filter(|f| !f.done)
            .map(|f| {
                (
                    f.uid,
                    f.route.iter().map(|l| l.0).collect(),
                    f.cap,
                    f.rate,
                )
            })
            .collect();
        out.sort_unstable_by_key(|&(uid, ..)| uid);
        out
    }

    /// Compare the pool's incremental rates against the global oracle.
    fn assert_matches_oracle(pool: &FluidPool, context: &str) {
        let snap = snapshot(pool);
        let caps: Vec<(f64, ())> = pool
            .inner
            .borrow()
            .links
            .iter()
            .map(|l| (l.capacity, ()))
            .collect();
        let flows: HashMap<u64, (Vec<usize>, f64)> = snap
            .iter()
            .map(|(uid, route, cap, _)| (*uid, (route.clone(), *cap)))
            .collect();
        let want = oracle_water_fill(&caps, &flows);
        for (uid, _, _, rate) in &snap {
            let w = want[uid];
            assert!(
                (rate - w).abs() <= 1e-9 * w.abs().max(1.0),
                "{context}: flow {uid} rate {rate} != oracle {w}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Incremental component-local rates equal a full global water-fill
        /// at every flow arrival and departure, over randomized link
        /// capacities, routes, caps, and arrival orders.
        #[test]
        fn incremental_rates_match_global_oracle(
            caps in prop::collection::vec(1.0e3f64..1.0e6, 2..8),
            jobs in prop::collection::vec(
                (
                    prop::collection::vec(0usize..8, 1..4), // route (link indices, mod #links)
                    1.0e3f64..1.0e5,                        // volume
                    prop::option::of(1.0e2f64..1.0e6),      // rate cap
                    0u64..2_000,                            // start delay (us)
                ),
                1..24,
            ),
        ) {
            let mut sim = Sim::new(0);
            let pool = FluidPool::new(sim.handle());
            let links: Vec<LinkId> = caps.iter().map(|&c| pool.add_link(c)).collect();
            let n = links.len();
            for (route, vol, cap, delay) in jobs {
                let pool = pool.clone();
                let h = sim.handle();
                // Dedup consecutive repeats to keep routes simple but allow
                // arbitrary sharing patterns.
                let route: Vec<LinkId> = route.iter().map(|&r| links[r % n]).collect();
                sim.spawn(async move {
                    h.sleep(SimDuration::from_us(delay)).await;
                    let probe = pool.clone();
                    let tr = pool.transfer(&route, vol, cap);
                    // Rates must match the oracle right after this arrival...
                    assert_matches_oracle(&probe, "after arrival");
                    tr.await;
                    // ...and right after this departure's rebalance.
                    assert_matches_oracle(&probe, "after departure");
                });
            }
            sim.run();
            prop_assert_eq!(pool.active_flows(), 0);
        }

        /// Conservation + fairness invariants survive the incremental
        /// rewrite (mirrors the engine-level proptests, with multi-link
        /// routes and caps).
        #[test]
        fn incremental_conserves_bytes(
            volumes in prop::collection::vec(1.0f64..100_000.0, 1..16),
        ) {
            let capacity = 1.0e6;
            let mut sim = Sim::new(0);
            let pool = FluidPool::new(sim.handle());
            let link = pool.add_link(capacity);
            for &v in &volumes {
                let pool = pool.clone();
                sim.spawn(async move {
                    pool.transfer(&[link], v, None).await;
                });
            }
            let makespan = sim.run().as_secs_f64();
            let total: f64 = volumes.iter().sum();
            prop_assert!(makespan >= total / capacity * (1.0 - 1e-9));
            prop_assert!((pool.carried(link) - total).abs() < 1e-3 * total.max(1.0));
        }
    }
}
