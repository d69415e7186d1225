//! A `curves` job is the admission memo's consumer: the same job run
//! twice in one process, first with a cold memo (it generates and gates
//! every xopt variant) and then with a warm one (it reuses them), must
//! produce byte-identical normalized reports. This file holds one test,
//! so the memo is cold when it starts.

use secproc::genvar::admission_memo_len;
use secproc::job::{JobEnv, JobKind, JobSpec};
use xobs::report::normalize;
use xpar::Pool;

fn curves_report(spec: &JobSpec, pool: &Pool) -> String {
    let report = spec.run(&JobEnv::new(pool)).expect("curves job runs");
    normalize(&report.to_json()).to_string_compact()
}

#[test]
fn warm_memo_curves_job_reports_like_a_cold_one() {
    let pool = Pool::new(2);
    for core in ["io", "ooo-i2x2-r32s16l8b256"] {
        let mut spec = JobSpec::new(JobKind::Curves);
        spec.core = core.into();
        spec.limbs = 8;
        // Each run consults the memo for the two generated kernels; only
        // the first adds their entries.
        let before = admission_memo_len();
        let cold = curves_report(&spec, &pool);
        assert_eq!(admission_memo_len(), before + 2, "{core}: first run cold");
        let warm = curves_report(&spec, &pool);
        assert_eq!(admission_memo_len(), before + 2, "{core}: second run warm");
        assert!(cold.contains("gen-a"), "{core}: report carries variants");
        assert_eq!(cold, warm, "{core}: warm memo changed the report");
    }
}
