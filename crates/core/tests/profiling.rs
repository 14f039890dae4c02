//! The kernel profile keeps CPI runs and OSP offset runs apart even
//! though both run the same sweep loop. The counters are process-global,
//! so this binary holds a single test.

use tpa_core::{
    cpi, kernel_profile, reset_profiling, set_profiling_enabled, CpiConfig, FrontierPolicy,
    MaintenanceMode, SeedSet, TpaIndex, TpaParams, Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;

#[test]
fn cpi_and_offset_runs_are_counted_apart() {
    use rand::{rngs::StdRng, SeedableRng};
    let g = erdos_renyi_gnm(60, 240, &mut StdRng::seed_from_u64(7));
    let t = Transition::new(&g);
    let index = TpaIndex::preprocess(&g, TpaParams::new(3, 6));
    set_profiling_enabled(true);
    reset_profiling();

    // One CPI run: a CPI count, no offset count.
    let run = cpi(&t, &SeedSet::single(4), &CpiConfig::default(), 0, None);
    let p = kernel_profile();
    assert_eq!((p.cpi_runs, p.cpi_iterations), (1, run.last_iteration as u64));
    assert_eq!((p.offset_runs, p.offset_iterations), (0, 0));

    // One nonzero offset refresh: an offset count, no new CPI count.
    let mut offset = vec![0.0f64; g.n()];
    offset[9] = 1e-3;
    offset[17] = -1e-3;
    let policy = FrontierPolicy::Auto;
    let (_, stats) = index.patch_stranger_on(&t, offset, MaintenanceMode::Exact, policy);
    assert!(stats.iterations > 0);
    let p = kernel_profile();
    assert_eq!((p.cpi_runs, p.cpi_iterations), (1, run.last_iteration as u64));
    assert_eq!((p.offset_runs, p.offset_iterations), (1, stats.iterations as u64));

    // An all-zero offset runs no sweep and records nothing.
    let (_, stats) = index.patch_stranger_on(&t, vec![0.0; g.n()], MaintenanceMode::Exact, policy);
    assert_eq!(stats.iterations, 0);
    assert_eq!(kernel_profile(), p);
    set_profiling_enabled(false);
}
