//! Hardware/software co-simulation smoke: trains one small vision model,
//! runs the **bit-true** executor against the float executor on every
//! hardware format (FP(8,4), Posit(8,1), MERSIT(8,2)), spot-checks the
//! scalar engine against the `mersit-hw` golden MAC on random code
//! streams, and writes the per-site divergence report the CI schema gate
//! diffs.
//!
//! Usage: `cargo run --release --bin cosim [-- --quick]`
//!
//! Artifacts: `COSIM_report.json` (divergence summaries, deterministic
//! key structure — `ci/cosim_schema.txt` pins the site/format key set).
//! Set `MERSIT_OBS=1` to also emit `OBS_cosim.json` with
//! `ptq.bittrue.*` / `ptq.coverify.*` spans and histograms.

use mersit_core::fixpoint::{v_ovf_for, FixTable};
use mersit_core::hardware_formats;
use mersit_hw::GoldenMac;
use mersit_nn::models::vgg_t;
use mersit_nn::{synthetic_images, train_classifier, TrainConfig};
use mersit_obs::json;
use mersit_ptq::{calibrate, coverify, dot_bit_true};
use mersit_tensor::Rng;

fn main() {
    mersit_obs::init_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, n_test, epochs) = if quick { (240, 48, 2) } else { (800, 120, 4) };

    // --- 1. One small trained model --------------------------------------
    let mut rng = Rng::new(0xC051);
    let mut model = vgg_t(8, 10, &mut rng);
    let ds = synthetic_images(0xC051, n_train, n_test, 8);
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        ..TrainConfig::default()
    };
    train_classifier(&mut model.net, &ds.train, &cfg);
    let cal = calibrate(&model, &ds.calib.inputs, 16);
    println!(
        "cosim: model {} | {} calibration sites | {} test samples\n",
        model.name,
        cal.num_sites(),
        ds.test.inputs.shape()[0]
    );

    // --- 2. Golden-MAC spot checks ---------------------------------------
    println!("golden differential (scalar engine vs mersit-hw GoldenMac):");
    let mut code_rng = Rng::new(0xD1FF);
    for fmt in hardware_formats() {
        let table = FixTable::build(fmt.as_ref()).expect("hardware formats have i64 tables");
        let mut dots = 0usize;
        for len in [1usize, 7, 64] {
            for _ in 0..8 {
                let gen = |rng: &mut Rng| -> Vec<u16> {
                    (0..len).map(|_| (rng.next_u64() & 0xFF) as u16).collect()
                };
                let (w, a) = (gen(&mut code_rng), gen(&mut code_rng));
                let acc_width = table.acc_width(v_ovf_for(len));
                let mut golden = GoldenMac::new(fmt.as_ref(), acc_width);
                for (&wc, &ac) in w.iter().zip(&a) {
                    golden.mac(wc, ac);
                }
                let engine = dot_bit_true(&table, &w, &a, acc_width);
                assert_eq!(
                    engine,
                    golden.acc_wrapped(),
                    "{}: engine diverged from golden MAC",
                    fmt.name()
                );
                dots += 1;
            }
        }
        println!(
            "  {:<12} {dots} random dot products bit-identical",
            fmt.name()
        );
    }

    // --- 3. Executor co-verification --------------------------------------
    println!("\nfloat vs bit-true executors (per-site divergence):");
    println!(
        "  {:<12} {:>5} {:>14} {:>14} {:>10}",
        "format", "sites", "worst site", "logits", "agreement"
    );
    let mut reports = Vec::new();
    for fmt in hardware_formats() {
        let report = coverify(&model, fmt, &cal, &ds.test.inputs, 16);
        println!(
            "  {:<12} {:>5} {:>14.6e} {:>14.6e} {:>9.1}%",
            report.format,
            report.sites.len(),
            report.worst_site_divergence(),
            report.logits_max_abs,
            100.0 * report.agreement
        );
        assert!(
            report.agreement >= 0.5,
            "{}: executors disagree on most predictions",
            report.format
        );
        reports.push(report);
    }

    // --- 4. Artifacts ------------------------------------------------------
    let json = json::block_obj([("reports", json::block_arr(reports.iter().map(|r| r.json())))]);
    std::fs::write("COSIM_report.json", json.into_document()).expect("write COSIM_report.json");
    println!("\nwrote COSIM_report.json ({} formats)", reports.len());

    match mersit_obs::report::write_global_report("cosim") {
        Ok(Some(path)) => println!("wrote {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("obs report write failed: {e}"),
    }
}
