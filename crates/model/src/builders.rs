//! Ready-made trainable networks for the examples, tests and benches.

use crate::conv::{Conv2d, Flatten, MaxPool2};
use crate::layer::{Embedding, Gelu, LayerNorm, Linear, Relu};
use crate::mha::MultiHeadAttention;
use crate::net::{Network, Residual};
use lowdiff_util::DetRng;

/// Multi-layer perceptron: Linear→ReLU chain with a linear head.
/// `dims = [in, h1, …, out]`.
pub fn mlp(dims: &[usize], seed: u64) -> Network {
    assert!(dims.len() >= 2, "need at least in/out dims");
    let mut rng = DetRng::new(seed);
    let mut layers: Vec<Box<dyn crate::Layer>> = Vec::new();
    for (i, w) in dims.windows(2).enumerate() {
        layers.push(Box::new(Linear::new(
            format!("fc{i}"),
            w[0],
            w[1],
            &mut rng,
        )));
        if i + 2 < dims.len() {
            layers.push(Box::new(Relu::new(format!("relu{i}"))));
        }
    }
    Network::new(layers)
}

/// Small CNN for `c_in`×`h`×`w` images (h, w divisible by 4):
/// two conv+pool stages and a linear classifier. The ResNet/VGG stand-in.
pub fn tiny_cnn(c_in: usize, h: usize, w: usize, classes: usize, seed: u64) -> Network {
    assert!(
        h.is_multiple_of(4) && w.is_multiple_of(4),
        "h, w must be divisible by 4"
    );
    let mut rng = DetRng::new(seed);
    let (c1, c2) = (8usize, 16usize);
    let flat = c2 * (h / 4) * (w / 4);
    Network::new(vec![
        Box::new(Conv2d::new("conv1", c_in, c1, 3, &mut rng)),
        Box::new(Relu::new("relu1")),
        Box::new(MaxPool2::new("pool1")),
        Box::new(Conv2d::new("conv2", c1, c2, 3, &mut rng)),
        Box::new(Relu::new("relu2")),
        Box::new(MaxPool2::new("pool2")),
        Box::new(Flatten::new("flatten")),
        Box::new(Linear::new("head", flat, classes, &mut rng)),
    ])
}

/// Tiny GPT-style language model over a single sequence:
/// Embedding → n_blocks × (residual multi-head attention + residual MLP) →
/// LM head, with `heads` attention heads per block (`d` divisible by
/// `heads`). Input is a (seq,) tensor of token ids; output is (seq, vocab)
/// logits.
pub fn tiny_gpt(vocab: usize, d: usize, heads: usize, n_blocks: usize, seed: u64) -> Network {
    let mut rng = DetRng::new(seed);
    let mut layers: Vec<Box<dyn crate::Layer>> = Vec::new();
    layers.push(Box::new(Embedding::new("tok_emb", vocab, d, &mut rng)));
    for b in 0..n_blocks {
        // Attention sub-block: LN → attention, wrapped in a residual.
        let attn_branch = Network::new(vec![
            Box::new(LayerNorm::new(format!("blk{b}.ln1"), d)),
            Box::new(MultiHeadAttention::new(
                format!("blk{b}.attn"),
                d,
                heads,
                &mut rng,
            )),
        ]);
        layers.push(Box::new(Residual::new(
            format!("blk{b}.res_attn"),
            attn_branch,
        )));
        // MLP sub-block: LN → Linear(4d) → GELU → Linear(d), residual.
        let mlp_branch = Network::new(vec![
            Box::new(LayerNorm::new(format!("blk{b}.ln2"), d)),
            Box::new(Linear::new(format!("blk{b}.fc1"), d, 4 * d, &mut rng)),
            Box::new(Gelu::new(format!("blk{b}.gelu"))),
            Box::new(Linear::new(format!("blk{b}.fc2"), 4 * d, d, &mut rng)),
        ]);
        layers.push(Box::new(Residual::new(
            format!("blk{b}.res_mlp"),
            mlp_branch,
        )));
    }
    layers.push(Box::new(LayerNorm::new("ln_f", d)));
    layers.push(Box::new(Linear::new("lm_head", d, vocab, &mut rng)));
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Blobs, MarkovText, Regression};
    use crate::loss::{mse, softmax_cross_entropy};
    use lowdiff_optim::{Adam, AdamState};
    use lowdiff_tensor::Tensor;

    #[test]
    fn mlp_shapes() {
        let mut net = mlp(&[8, 16, 4], 1);
        let x = Tensor::zeros(&[5, 8]);
        assert_eq!(net.forward(&x).shape(), &[5, 4]);
        assert_eq!(net.num_params(), 8 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn mlp_trains_on_regression() {
        let mut net = mlp(&[8, 32, 3], 2);
        let task = Regression::new(8, 3, 3);
        let adam = Adam {
            lr: 3e-3,
            ..Adam::default()
        };
        let mut st = AdamState::new(net.num_params());
        let mut params = net.params_flat();
        let mut rng = DetRng::new(4);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let (x, y) = task.batch(&mut rng, 16);
            net.set_params_flat(&params);
            let pred = net.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            let g = net.backward(&grad);
            adam.step(&mut st, &mut params, &g);
            first.get_or_insert(loss);
            last = loss;
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "regression loss did not halve: {first} -> {last}"
        );
    }

    #[test]
    fn cnn_trains_on_blobs() {
        let (c, h, w, classes) = (1usize, 8usize, 8usize, 3usize);
        let mut net = tiny_cnn(c, h, w, classes, 5);
        let blobs = Blobs::new(c * h * w, classes, 6);
        let adam = Adam {
            lr: 2e-3,
            ..Adam::default()
        };
        let mut st = AdamState::new(net.num_params());
        let mut params = net.params_flat();
        let mut rng = DetRng::new(7);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (x, labels) = blobs.image_batch(&mut rng, 8, c, h, w);
            net.set_params_flat(&params);
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            let g = net.backward(&grad);
            adam.step(&mut st, &mut params, &g);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.6,
            "cnn loss did not drop: {:?} -> {last}",
            first
        );
    }

    #[test]
    fn gpt_trains_on_markov_text() {
        let vocab = 12;
        let mut net = tiny_gpt(vocab, 16, 1, 2, 8);
        let text = MarkovText::new(vocab, 9);
        let adam = Adam {
            lr: 3e-3,
            ..Adam::default()
        };
        let mut st = AdamState::new(net.num_params());
        let mut params = net.params_flat();
        let mut rng = DetRng::new(10);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..80 {
            let (x, target) = text.sequence_tensor(&mut rng, 24);
            net.set_params_flat(&params);
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &target);
            let g = net.backward(&grad);
            adam.step(&mut st, &mut params, &g);
            first.get_or_insert(loss);
            last = loss;
        }
        // A useful LM must beat the uniform baseline ln(vocab)≈2.48 and
        // improve over its own start.
        assert!(last < first.unwrap(), "no improvement");
        assert!(
            last < (vocab as f64).ln() * 0.95,
            "did not beat uniform baseline: {last}"
        );
    }

    #[test]
    fn gpt_mha_trains_on_markov_text() {
        let vocab = 12;
        let mut net = tiny_gpt(vocab, 16, 4, 2, 18);
        let text = MarkovText::new(vocab, 9);
        let adam = Adam {
            lr: 3e-3,
            ..Adam::default()
        };
        let mut st = AdamState::new(net.num_params());
        let mut params = net.params_flat();
        let mut rng = DetRng::new(19);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..80 {
            let (x, target) = text.sequence_tensor(&mut rng, 24);
            net.set_params_flat(&params);
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &target);
            let g = net.backward(&grad);
            adam.step(&mut st, &mut params, &g);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap(), "no improvement");
        assert!(last < (vocab as f64).ln(), "did not beat uniform baseline");
    }

    /// Five Adam steps of a tiny GPT on Markov text, hashed bit for bit:
    /// the parameters and logits before each step and the gradient
    /// `backward` returns.
    fn gpt_trace_hash(mut net: Network) -> u64 {
        let text = MarkovText::new(12, 9);
        let adam = Adam::default();
        let mut st = AdamState::new(net.num_params());
        let mut params = net.params_flat();
        let mut rng = DetRng::new(10);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |xs: &[f32]| {
            for x in xs {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..5 {
            let (x, target) = text.sequence_tensor(&mut rng, 10);
            net.set_params_flat(&params);
            fold(&params);
            let logits = net.forward(&x);
            fold(logits.as_slice());
            let (_, grad) = softmax_cross_entropy(&logits, &target);
            let g = net.backward(&grad);
            fold(&g);
            adam.step(&mut st, &mut params, &g);
        }
        fold(&params);
        h
    }

    /// The one-head GPT is pinned bit for bit: parameters, logits and
    /// gradients over several training steps.
    #[test]
    fn one_head_gpt_trace_is_pinned() {
        const PIN: u64 = 14969466061601282166;
        assert_eq!(gpt_trace_hash(tiny_gpt(12, 16, 1, 2, 8)), PIN);
    }

    #[test]
    fn gpt_layer_structure() {
        let net = tiny_gpt(10, 8, 1, 2, 11);
        // emb + 2*(res_attn + res_mlp) + ln_f + head = 7 layers.
        assert_eq!(net.num_layers(), 7);
        let ranges = net.layer_ranges();
        assert_eq!(ranges.last().unwrap().0, "lm_head");
        // Ranges are contiguous and cover num_params.
        let mut expect = 0;
        for (_, r) in &ranges {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
        assert_eq!(expect, net.num_params());
    }
}
