//! Table 2 reproduction: per-application IPC and base power
//! (dynamic + leakage) on the base non-adaptive processor.

use bench_suite::{make_oracle, print_sweep_summary, table2_rows};
use workload::App;

fn main() {
    let oracle = make_oracle().expect("oracle");
    // Finding the suite's peak activity evaluates every base point in one
    // parallel pass; the rows below only read the cache.
    oracle.suite_max_activity(&App::ALL).expect("sweep");
    println!("Table 2: Workload description (measured on the base processor)");
    println!("===============================================================");
    println!(
        "{:10} {:12} {:>6} {:>8}   {:>10} {:>12}",
        "App", "Type", "IPC", "Power(W)", "paper IPC", "paper P(W)"
    );
    for (app, ipc, power) in table2_rows(&oracle, &App::ALL).expect("rows") {
        let class = if app.is_multimedia() {
            "Multimedia"
        } else if matches!(app, App::Bzip2 | App::Gzip | App::Twolf) {
            "SpecInt"
        } else {
            "SpecFP"
        };
        println!(
            "{:10} {:12} {:>6.2} {:>8.1}   {:>10.1} {:>12.1}",
            app.name(),
            class,
            ipc,
            power,
            app.paper_ipc(),
            app.paper_power_watts()
        );
    }
    println!();
    print_sweep_summary(&oracle);
}
