//! Quickstart: train a small CNN, quantize it, and run one private
//! two-party inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aq2pnn::sim::{run_two_party, RunPlan};
use aq2pnn::ProtocolConfig;
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::tensor::argmax_i64;
use aq2pnn_nn::zoo;
use aq2pnn_transport::duplex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Model provider side (plaintext domain): train and quantize. ----
    println!("training tiny CNN on a synthetic 4-class dataset…");
    let data = SyntheticVision::tiny(4, 42);
    let mut net = FloatNet::init(&zoo::tiny_cnn(4), 7)?;
    net.train_epochs(&data, 4, 8, 0.05);
    let float_acc = net.accuracy(data.test());
    let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())?;
    println!(
        "float accuracy: {:.1}%  (int8 quantized: {:.1}%)",
        100.0 * float_acc,
        100.0 * model.accuracy(data.test())
    );

    // ---- Joint: one private inference at the paper's 16-bit setting. ----
    let cfg = ProtocolConfig::paper(16);
    let sample = &data.test()[0];
    let run = run_two_party(duplex(), &model, &cfg, &[&sample.image], &RunPlan::default())?;
    println!("\nsecure inference (Q1 = 2^{}, Q2 = 2^{}):", cfg.q1_bits, cfg.q2_bits);
    println!("  logits     : {:?}", run.logits[0]);
    println!("  prediction : class {}  (true label {})", argmax_i64(&run.logits[0]), sample.label);
    println!(
        "  traffic    : user sent {} B, provider sent {} B ({:.3} MiB total)",
        run.user_stats.bytes_sent,
        run.provider_stats.bytes_sent,
        (run.user_stats.total_bytes()) as f64 / (1024.0 * 1024.0),
    );
    println!("  rounds     : {}", run.user_stats.rounds + run.provider_stats.rounds);

    // Communication by operator class — the Table 5 view.
    println!("\nper-phase traffic (user side):");
    for (phase, st) in &run.user_stats.phases {
        println!("  {phase:<12} {:>8} B", st.total_bytes());
    }
    Ok(())
}
