//! Phase 2 against a plain reference loop: every one of the 450
//! candidates run twice on its own cache with the second pass costed,
//! then stably sorted. `FlowCtx::explore` costs each distinct cost shape
//! once and skips warm-up passes that leave the cache empty; its ranking
//! must still match the reference bit for bit, at any thread count.

use macromodel::charact::CharactOptions;
use mpint::Natural;
use pubkey::modexp::{mod_exp, ExpCache};
use pubkey::ops::MpnOps;
use pubkey::space::{ModExpConfig, ParetoFront};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::flow::KernelModels;
use secproc::FlowBuilder;
use xobs::Registry;
use xpar::Pool;
use xr32::config::CpuConfig;

const GLUE: f64 = 4.0;

/// `(config, cycle bits)` fastest-first, plus the Pareto survivor count.
fn reference(models: &KernelModels, bits: usize) -> (Vec<(ModExpConfig, u64)>, usize) {
    let mut rng = StdRng::seed_from_u64(0xE4B0);
    let mut m = Natural::random_bits(&mut rng, bits);
    if m.is_even() {
        m = &m + &Natural::one();
    }
    let base = Natural::random_below(&mut rng, &m);
    let exp = Natural::random_bits(&mut rng, bits);
    let expect = base.pow_mod(&exp, &m);
    let mut front = ParetoFront::new();
    let mut ranked = Vec::new();
    for config in ModExpConfig::enumerate() {
        let mut ops = models.modeled_ops(GLUE);
        let mut cache = ExpCache::new();
        mod_exp(&mut ops, &base, &exp, &m, &config, &mut cache).unwrap();
        MpnOps::<u32>::reset(&mut ops);
        let got = mod_exp(&mut ops, &base, &exp, &m, &config, &mut cache).unwrap();
        assert_eq!(got, expect, "{config}");
        let cycles = MpnOps::<u32>::cycles(&ops);
        front.offer(config, cycles, config.table_bytes(bits));
        ranked.push((config, cycles));
    }
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let ranked = ranked.into_iter().map(|(c, y)| (c, y.to_bits())).collect();
    (ranked, front.len())
}

#[test]
fn explore_matches_the_two_pass_reference_bit_for_bit() {
    let config = CpuConfig::default();
    let options = CharactOptions {
        train_samples: 12,
        validation_points: 5,
    };
    let models = FlowBuilder::new(&config)
        .build()
        .unwrap()
        .characterize(8, &options);
    for bits in [64, 128] {
        let (expect, front_len) = reference(&models, bits);
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            let reg = Registry::new();
            let ctx = FlowBuilder::new(&config)
                .pool(&pool)
                .metrics(&reg)
                .build()
                .unwrap();
            let result = ctx.explore(&models, bits, GLUE).unwrap();
            let got: Vec<_> = result
                .ranked
                .iter()
                .map(|c| (c.config, c.cycles.to_bits()))
                .collect();
            assert_eq!(got, expect, "{bits} bits, {threads} threads");
            assert_eq!(result.evaluated, 450);
            assert_eq!(reg.counter("flow.phase2.candidates_evaluated").get(), 450);
            assert_eq!(
                reg.gauge("space.pareto_survivors").get(),
                front_len as f64,
                "{bits} bits, {threads} threads"
            );
        }
    }
}
