//! Algorithm design space exploration (the paper's §3.2 and §4.3).
//!
//! Characterizes the `mpn` kernels on the cycle-accurate ISS, fits
//! performance macro-models by regression, then sweeps all 450
//! modular-exponentiation candidates natively — the workflow that
//! replaced months of ISS time in the paper.
//!
//! Run with: `cargo run --release --example design_space_exploration [bits]`

use wsp::macromodel::charact::CharactOptions;
use wsp::pubkey::space::ModExpConfig;
use wsp::secproc::FlowBuilder;
use wsp::xr32::config::CpuConfig;

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let config = CpuConfig::default();

    // Phase 1: characterize the library kernels on the ISS.
    println!(
        "characterizing kernels on the XR32 ISS (operands up to {} limbs)...",
        bits / 32
    );
    let ctx = FlowBuilder::new(&config).build().unwrap();
    let models = ctx.characterize(
        (bits / 32).max(8),
        &CharactOptions {
            train_samples: 24,
            validation_points: 8,
        },
    );
    for op in wsp::pubkey::ops::opname::ALL {
        let q = models.quality[&(op, 32)];
        println!(
            "  {:<14} {:<46} R²={:.4} |err|={:.1}%",
            op,
            models.models32()[op].to_string(),
            q.r_squared,
            q.mae_pct
        );
    }

    // Phase 2: explore the full 450-candidate lattice natively.
    println!(
        "\nexploring 5 mul-algos x 5 windows x 3 CRT x 2 radices x 3 caches = 450 candidates..."
    );
    let result = ctx
        .explore(&models, bits, 4.0)
        .expect("the whole lattice runs");
    println!(
        "evaluated {} candidates in {:.2?}\n",
        result.evaluated, result.elapsed
    );

    println!("top 10 (estimated cycles per {bits}-bit exponentiation):");
    for c in result.ranked.iter().take(10) {
        println!("  {:>12.4e}  {}", c.cycles, c.config);
    }
    println!("\nbottom 3 (what exploration saves you from):");
    for c in result.ranked.iter().rev().take(3) {
        println!("  {:>12.4e}  {}", c.cycles, c.config);
    }
    let baseline = result
        .ranked
        .iter()
        .find(|c| c.config == ModExpConfig::baseline())
        .expect("baseline in lattice");
    println!(
        "\nalgorithmic win over the naive baseline: {:.1}X before any custom hardware",
        baseline.cycles / result.best().cycles
    );
}
