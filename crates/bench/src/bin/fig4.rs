//! Figure 4 reproduction: design for reliability vs design for
//! temperature. For each application and each temperature setting, prints
//! the frequency chosen by DVS-for-DRM (temperature = `T_qual`) and by
//! DVS-for-DTM (temperature = `T_max`), plus the constraint each choice
//! violates from the other regime's point of view.
//!
//! Expected shape (paper §7.3): the DTM curve is steeper than the DRM
//! curve; at high temperature settings DTM's frequency violates the
//! reliability target, at low settings DRM's frequency violates the
//! thermal limit, and the crossover point moves with the application —
//! neither policy subsumes the other.

use bench_suite::{
    fig4_rows, make_oracle, print_sweep_summary, suite_alpha_qual, DVS_STEP_GHZ, FIG34_SWEEP,
};
use drm::Strategy;
use workload::App;

fn main() {
    let oracle = make_oracle().expect("oracle");
    let alpha = suite_alpha_qual(&oracle).expect("alpha_qual");
    // DRM and DTM both search the DVS grid: one parallel pass per suite
    // covers every evaluation the comparison needs.
    oracle
        .prefetch_suite(&App::ALL, Strategy::Dvs, DVS_STEP_GHZ)
        .expect("sweep");

    println!("Figure 4: DVS frequency (GHz) chosen by DRM (T_qual) vs DTM (T_max)");
    println!("====================================================================");
    println!("cells: DRM-GHz/DTM-GHz, R = DTM violates reliability, T = DRM");
    println!("violates the thermal limit");
    print!("{:9}", "App");
    for (ours, paper) in FIG34_SWEEP {
        print!(" {:>12}", format!("{ours:.0}K(~{paper:.0})"));
    }
    println!();

    let mut crossovers = Vec::new();
    for (app, row) in fig4_rows(&oracle, &App::ALL, alpha).expect("rows") {
        print!("{:9}", app.name());
        for p in &row {
            print!(
                " {:>7}",
                format!(
                    "{:.2}/{:.2}{}{}",
                    p.drm_ghz,
                    p.dtm_ghz,
                    if p.dtm_violates_reliability { "R" } else { "" },
                    if p.drm_violates_thermal { "T" } else { "" }
                )
            );
        }
        println!();
        // Crossover: first sweep point where DRM's frequency overtakes DTM's.
        let cross = row
            .iter()
            .position(|p| p.drm_ghz < p.dtm_ghz)
            .map(|i| FIG34_SWEEP[i].0);
        crossovers.push((app, cross));
    }
    println!();
    println!("Crossover temperature (DTM first chooses a higher frequency than DRM):");
    for (app, cross) in crossovers {
        match cross {
            Some(t) => println!("  {:9} {t:.0} K", app.name()),
            None => println!("  {:9} none within the sweep", app.name()),
        }
    }
    println!();
    print_sweep_summary(&oracle);
}
