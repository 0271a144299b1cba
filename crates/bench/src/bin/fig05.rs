//! Figure 5: similarity analysis on Amazon-Cds — the mean cosine similarity
//! between generated view pairs over training steps, for the CNN, SA and
//! LSTM extractors. The paper's finding: SA/LSTM pairs collapse to ~1
//! (useless for contrastive learning) while CNN pairs sit around 0.7–0.8.

use miss_bench::{dataset_for, ExpOpts};
use miss_core::{ExtractorKind, Miss, MissConfig};
use miss_data::{BatchIter, WorldConfig};
use miss_models::{CtrModel, Din, ForwardOpts, ModelConfig};
use miss_nn::{Adam, Graph, ParamStore};
use miss_tensor::Tensor;
use miss_trainer::TrainConfig;
use miss_util::Rng;

fn main() {
    let opts = ExpOpts::from_args();
    let world = if opts.smoke {
        WorldConfig::tiny()
    } else {
        WorldConfig::amazon_cds(opts.scale)
    };
    let dataset = dataset_for(world);
    let train_cfg = TrainConfig::default();
    let epochs = if opts.smoke { 1 } else { 4 };
    let probe_every = if opts.smoke { 2 } else { 10 };

    println!("=== Figure 5: view-pair cosine similarity vs training step (Amazon-Cds) ===");
    println!("{:<10} {:>6} {:>12}", "extractor", "step", "similarity");
    for (label, kind) in [
        ("MISS-SA", ExtractorKind::SelfAttention),
        ("MISS-LSTM", ExtractorKind::Lstm),
        ("MISS-CNN", ExtractorKind::Cnn),
    ] {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(7);
        let model = Din::new(
            &mut store,
            &dataset.schema,
            &ModelConfig::default(),
            &mut rng,
        );
        let miss = Miss::new(
            &mut store,
            model.embedding(),
            MissConfig::with_extractor(kind),
            &mut rng,
        );
        let mut adam = Adam::new(train_cfg.lr, train_cfg.l2);
        let mut step = 0usize;
        for _ in 0..epochs {
            let mut shuffle_rng = rng.fork(1);
            for batch in BatchIter::new(
                &dataset.train,
                &dataset.schema,
                train_cfg.batch_size,
                Some(&mut shuffle_rng),
            ) {
                if step.is_multiple_of(probe_every) {
                    let mut g = Graph::new(&store);
                    let sim =
                        miss.probe_similarity(&mut g, &store, model.embedding(), &batch, &mut rng);
                    println!("{label:<10} {step:>6} {sim:>12.4}");
                }
                // one joint training step
                let mut g = Graph::new(&store);
                let mut fo = ForwardOpts {
                    training: true,
                    rng: &mut rng,
                };
                let logits = model.forward(&mut g, &store, &batch, &mut fo);
                let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
                let mut loss = g.tape.bce_with_logits_mean(logits, labels);
                if let Some(aux) = miss_core::SslMethod::ssl_loss(
                    &miss,
                    &mut g,
                    &store,
                    model.embedding(),
                    &batch,
                    &mut rng,
                ) {
                    loss = g.tape.add(loss, aux);
                }
                let grads = g.tape.backward(loss);
                adam.step(&mut store, &g, grads);
                step += 1;
            }
        }
    }
}
