//! **Ablations** — the design choices DESIGN.md calls out, measured live:
//!
//! 1. local vs exact share extension/truncation (end-to-end error rate);
//! 2. revealed-sign vs masked-MUX ABReLU (communication cost of closing
//!    the sign leak);
//! 3. single-round vs lazy (quadrant-gated) OT scheduling;
//! 4. headroom sweep substantiating the paper's "+4 bits" rule.

use aq2pnn::sim::{run_two_party, RunPlan};
use aq2pnn::{PipelineMode, ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_bench::{header, train_tiny};
use aq2pnn_nn::tensor::argmax_i64;
use aq2pnn_nn::zoo;
use aq2pnn_ring::{extend, Ring};
use aq2pnn_transport::duplex;

fn main() {
    let m = train_tiny(&zoo::tiny_cnn(4), 4, 91);
    let n_eval = 16;

    header("Ablation 1 — pipeline structure and share conversions (q1=12)");
    let narrow = {
        let mut c = ProtocolConfig::paper(12);
        c.pipeline = PipelineMode::NarrowActivations;
        c
    };
    for (label, cfg) in [
        ("stay-wide + exact conversions", ProtocolConfig::exact(12)),
        ("stay-wide + local conversions", ProtocolConfig::paper(12)),
        ("narrow-activations (Fig. 8 literal)", narrow),
    ] {
        let mut agree = 0;
        for s in m.data.test().iter().take(n_eval) {
            let run = run_two_party(duplex(), &m.quant, &cfg, &[&s.image], &RunPlan::default())
                .expect("2pc runs");
            let plain = m.quant.forward(&s.image).expect("plaintext");
            if argmax_i64(&run.logits[0]) == argmax_i64(&plain) {
                agree += 1;
            }
        }
        println!("{label:<32} argmax agreement {agree}/{n_eval}");
    }

    header("Ablation 2 — revealed-sign vs masked-MUX ABReLU");
    for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
        let mut cfg = ProtocolConfig::paper(16);
        cfg.relu_mode = mode;
        let run = run_two_party(
            duplex(),
            &m.quant,
            &cfg,
            &[&m.data.test()[0].image],
            &RunPlan::default(),
        )
        .expect("runs");
        println!(
            "{mode:?}: {:>8} B online, {} msgs   (masked hides the sign \
             pattern from party 0 at the cost of one width-ℓ OT per \
             activation)",
            run.user_stats.online_total_bytes() + run.provider_stats.online_total_bytes(),
            run.user_stats.messages_sent + run.provider_stats.messages_sent,
        );
    }

    header("Ablation 3 — single-round vs lazy (quadrant-gated) OT");
    for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
        let mut cfg = ProtocolConfig::paper(16);
        cfg.relu_rounds = rounds;
        let run = run_two_party(
            duplex(),
            &m.quant,
            &cfg,
            &[&m.data.test()[0].image],
            &RunPlan::default(),
        )
        .expect("runs");
        println!(
            "{rounds:?}: {:>8} B online, {} msgs",
            run.user_stats.online_total_bytes() + run.provider_stats.online_total_bytes(),
            run.user_stats.messages_sent + run.provider_stats.messages_sent,
        );
    }

    header("Ablation 4 — carrier headroom and the accuracy cliff (Sec. 5.1)");
    println!("{:<10} {:>16}", "carrier", "accuracy(%)");
    for q1 in [16u32, 12, 10, 9, 8, 7, 6] {
        let acc = 100.0 * m.quant.accuracy_ring(m.data.test(), q1, q1 + 16);
        println!("{q1:<10} {acc:>16.2}");
    }
    println!(
        "\ninterpretation: in the stay-wide structure the cliff is \
         deterministic — it appears exactly when the carrier can no longer \
         hold the INT8 value range (≤7 bits here; ≤12 bits for the paper's \
         12-bit models). The narrow-activation ablation above shows the \
         alternative failure mode the paper's '+4 bits' statistical \
         analysis guards against: local share extension at p ≈ |x|/2^ℓ \
         per element (|x|=100, ℓ=12 → p = {:.4}).",
        extend::failure_probability(Ring::new(12), 100)
    );
}
