//! Runs the ablation studies of `kronpriv_bench::ablation` (see the README's "Evaluation
//! datasets and ablations" section):
//!
//! ```text
//! cargo run --release -p kronpriv-bench --bin ablation -- smooth-sensitivity [--max-k 14]
//! cargo run --release -p kronpriv-bench --bin ablation -- epsilon-sweep [--reps 5]
//! cargo run --release -p kronpriv-bench --bin ablation -- objective-grid
//! cargo run --release -p kronpriv-bench --bin ablation -- all
//! ```

use kronpriv::prelude::Dataset;
use kronpriv_bench::ablation::{epsilon_sweep, objective_grid, smooth_sensitivity_growth};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let get = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));

    if which == "smooth-sensitivity" || which == "all" {
        let max_k: u32 = get("--max-k").and_then(|v| v.parse().ok()).unwrap_or(14);
        println!("=== A1: smooth sensitivity of Δ vs SKG size (Θ = [0.99 0.45; 0.45 0.25]) ===");
        println!(
            "{:>3} {:>8} {:>8} {:>10} {:>6} {:>10}",
            "k", "nodes", "edges", "triangles", "LS", "SS_β"
        );
        for p in smooth_sensitivity_growth(8..=max_k, 1) {
            println!(
                "{:>3} {:>8} {:>8} {:>10.0} {:>6} {:>10.2}",
                p.k, p.nodes, p.edges, p.triangles, p.local_sensitivity, p.smooth_sensitivity
            );
        }
        println!();
    }

    if which == "epsilon-sweep" || which == "all" {
        let reps: usize = get("--reps").and_then(|v| v.parse().ok()).unwrap_or(5);
        println!("=== A2: ε sweep on the CA-GrQc stand-in (δ = 0.01, {reps} runs each) ===");
        println!("{:>6} {:>22} {:>22}", "ε", "mean |Θ̃ − Θ̂_mom|", "max |Θ̃ − Θ̂_mom|");
        for p in epsilon_sweep(Dataset::CaGrQc, &[0.05, 0.1, 0.2, 0.5, 1.0, 2.0], reps, 1) {
            println!(
                "{:>6} {:>22.4} {:>22.4}",
                p.epsilon, p.mean_distance_to_kronmom, p.max_distance_to_kronmom
            );
        }
        println!();
    }

    if which == "objective-grid" || which == "all" {
        println!("=== A3: Dist × Norm grid of Equation (2) on a synthetic SKG (k = 12) ===");
        println!("{:>8} {:>8} {:>12}   recovered (a, b, c)", "Dist", "Norm", "|Θ̂ − Θ|");
        for cell in objective_grid(12, 4) {
            println!(
                "{:>8} {:>8} {:>12.4}   {}",
                cell.distance, cell.normalization, cell.recovery_error, cell.recovered
            );
        }
        println!();
    }

    println!("structured results written under target/experiments/ablation/");
}
