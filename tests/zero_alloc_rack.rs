//! Steady-state allocation gate for a power-capped rack's serial path.
//!
//! A capped [`RackCoordinator`] routes every arrival slice against live
//! device snapshots, plans the slice's wakes against the command budget
//! and steps its members through grant slices. Once warmed up, none of
//! that may touch the heap: the snapshots, the pre-routing availability
//! and the planned nominals live in rack-owned buffers, and the budget is
//! a fixed array of atomic slots.
//!
//! This file holds exactly one test so the counting global allocator
//! cannot race with unrelated tests in the same binary.

// A counting global allocator requires `unsafe impl GlobalAlloc`; the
// workspace denies unsafe code everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qdpm::core::{QDpmConfig, QosConfig};
use qdpm::device::presets;
use qdpm::sim::fleet::{FleetConfig, FleetMember, FleetPolicy};
use qdpm::sim::hierarchy::{RackCoordinator, RackSpec};
use qdpm::workload::DispatchPolicy;

/// Forwards to the system allocator, counting every allocation event
/// (fresh allocations and reallocations; frees are not counted).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Drives `pairs` gap + arrival-slice pairs: gaps of 0–3 slices on one
/// thread, then an arrival slice of 1–2 arrivals, from a fixed xorshift
/// stream.
fn drive(rack: &mut RackCoordinator, state: &mut u64, pairs: usize) {
    for _ in 0..pairs {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        rack.advance_gap(*state % 4, 1);
        rack.arrival_slice(1 + u32::from(*state & 16 != 0));
    }
}

#[test]
fn capped_rack_slices_are_allocation_free_in_steady_state() {
    let policies = [
        FleetPolicy::QDpm(QDpmConfig::default()),
        FleetPolicy::QosQDpm(QosConfig::default()),
        FleetPolicy::AdaptiveTimeout,
    ];
    let spec = RackSpec {
        label: "rack".to_string(),
        members: (0..16)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policies[i % policies.len()].clone(),
            })
            .collect(),
        power_cap: Some(8.0),
    };
    let config = FleetConfig {
        horizon: 100_000,
        dispatch: DispatchPolicy::JoinShortestQueue,
        ..FleetConfig::default()
    };
    let mut rack = RackCoordinator::new(&spec, &config).unwrap();
    let mut state = 0x9e37_79b9_7f4a_7c15;

    // Warm up: queue ring buffers, learner visit counters and the rack's
    // own buffers reach their high-water marks.
    drive(&mut rack, &mut state, 2_000);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drive(&mut rack, &mut state, 10_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "the capped rack allocated {} times over 10k gap + arrival-slice pairs",
        after - before
    );

    // The slices did real work under a binding cap (the gate is not
    // vacuous).
    let report = rack.report();
    assert!(report.fleet.stats.total.arrivals > 12_000);
    assert!(report.vetoed_wakeups > 0);
}
