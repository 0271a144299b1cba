//! Dataset assembly following the paper's protocol (§VI-A2): chronological
//! ordering, leave-last-three split, and one uniformly sampled
//! non-interacted negative per positive.
#![expect(
    clippy::disallowed_types,
    reason = "R1: HashSet serves membership tests (negative sampling) and len() (stats) only, never iteration"
)]

use crate::config::WorldConfig;
use crate::world::World;
use miss_util::Rng;
use std::collections::HashSet;

/// One vocabulary (embedding table) definition. Index 0 is always PAD.
#[derive(Clone, Debug)]
pub struct VocabDef {
    /// Human-readable name ("item", "category", ...).
    pub name: String,
    /// Table size *including* the PAD row.
    pub size: usize,
}

/// A sequential field: which vocabulary its ids index into.
#[derive(Clone, Debug)]
pub struct SeqField {
    /// Field name ("hist_items", ...).
    pub name: String,
    /// Index into [`Schema::vocabs`].
    pub vocab: usize,
}

/// Feature schema shared by every model: categorical fields (one id each)
/// and sequential fields (a padded id sequence each). Fields reference
/// vocabularies so e.g. the candidate item and the history items share one
/// embedding table — a requirement for MISS's SSL signal to transfer to
/// candidate scoring.
#[derive(Clone, Debug)]
pub struct Schema {
    /// Embedding vocabularies.
    pub vocabs: Vec<VocabDef>,
    /// Categorical fields as `(name, vocab index)`.
    pub cat_fields: Vec<(String, usize)>,
    /// Sequential fields.
    pub seq_fields: Vec<SeqField>,
    /// Padded sequence length `L`.
    pub seq_len: usize,
}

impl Schema {
    /// Number of categorical fields `I`.
    pub fn num_cat(&self) -> usize {
        self.cat_fields.len()
    }

    /// Number of sequential fields `J`.
    pub fn num_seq(&self) -> usize {
        self.seq_fields.len()
    }

    /// Total number of fields as the paper counts them.
    pub fn num_fields(&self) -> usize {
        self.num_cat() + self.num_seq()
    }

    /// Total feature count (distinct ids across all vocabularies, excluding
    /// PAD rows) — the paper's "#Features".
    pub fn num_features(&self) -> usize {
        self.vocabs.iter().map(|v| v.size - 1).sum()
    }
}

/// One CTR instance: categorical ids, per-field histories (unpadded, already
/// truncated to the `max_seq_len` most recent), and the click label.
#[derive(Clone, Debug)]
pub struct Sample {
    /// One id per categorical field, aligned with [`Schema::cat_fields`].
    pub cat: Vec<u32>,
    /// One id sequence per sequential field, aligned with
    /// [`Schema::seq_fields`]; all sequences of one sample share a length.
    pub hist: Vec<Vec<u32>>,
    /// Click label (1.0 or 0.0).
    pub label: f32,
}

/// Which split to read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Training split (`[1, L-3] → L-2` per user).
    Train,
    /// Validation split (`[1, L-2] → L-1`).
    Valid,
    /// Test split (`[1, L-1] → L`).
    Test,
}

/// Statistics for the Table III analogue.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Users surviving the filter.
    pub users: usize,
    /// Distinct items observed in histories or candidates.
    pub items: usize,
    /// Total instances across all splits.
    pub instances: usize,
    /// Total feature count.
    pub features: usize,
    /// Field count.
    pub fields: usize,
}

/// A fully assembled dataset: schema plus the three splits.
pub struct Dataset {
    /// Dataset name (from the world config).
    pub name: String,
    /// Feature schema.
    pub schema: Schema,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Validation samples.
    pub valid: Vec<Sample>,
    /// Test samples.
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Generate a world and assemble the dataset in one call.
    pub fn generate(config: WorldConfig, seed: u64) -> Self {
        let world = World::generate(config, seed);
        Self::from_world(&world, seed)
    }

    /// Assemble the dataset from a generated world. `seed` drives negative
    /// sampling only.
    #[expect(
        clippy::indexing_slicing,
        reason = "the world generator gives every user a history of at least three items"
    )]
    pub fn from_world(world: &World, seed: u64) -> Self {
        let cfg = &world.config;
        let mut rng = Rng::new(seed ^ 0x00DA_7A5E);

        let mut vocabs = vec![
            VocabDef {
                name: "user".into(),
                size: world.users.len() + 1,
            },
            VocabDef {
                name: "item".into(),
                size: cfg.num_items + 1,
            },
            VocabDef {
                name: "category".into(),
                size: cfg.num_categories + 1,
            },
        ];
        let (user_v, item_v, cat_v) = (0usize, 1usize, 2usize);
        let mut cat_fields = vec![
            ("user".to_string(), user_v),
            ("cand_item".to_string(), item_v),
            ("cand_category".to_string(), cat_v),
        ];
        let mut seller_v = None;
        if cfg.num_sellers > 0 {
            vocabs.push(VocabDef {
                name: "seller".into(),
                size: cfg.num_sellers + 1,
            });
            seller_v = Some(vocabs.len() - 1);
            cat_fields.push(("cand_seller".to_string(), vocabs.len() - 1));
        }
        if cfg.num_action_types > 0 {
            vocabs.push(VocabDef {
                name: "action".into(),
                size: cfg.num_action_types + 1,
            });
            cat_fields.push(("action_type".to_string(), vocabs.len() - 1));
        }
        let seq_fields = vec![
            SeqField {
                name: "hist_items".into(),
                vocab: item_v,
            },
            SeqField {
                name: "hist_categories".into(),
                vocab: cat_v,
            },
        ];
        let schema = Schema {
            vocabs,
            cat_fields,
            seq_fields,
            seq_len: cfg.max_seq_len,
        };

        let mut train = Vec::with_capacity(world.users.len() * 2);
        let mut valid = Vec::with_capacity(world.users.len() * 2);
        let mut test = Vec::with_capacity(world.users.len() * 2);

        for (uidx, user) in world.users.iter().enumerate() {
            let uid = uidx as u32 + 1;
            let interacted: HashSet<u32> = user.history.iter().copied().collect();
            let l = user.history.len();
            // (history upper bound, target index) per split.
            let splits = [
                (l - 3, l - 3, Split::Train),
                (l - 2, l - 2, Split::Valid),
                (l - 1, l - 1, Split::Test),
            ];
            for (hist_end, target, split) in splits {
                let pos_item = user.history[target];
                let neg_item = loop {
                    let cand = rng.below(cfg.num_items) as u32 + 1;
                    if !interacted.contains(&cand) {
                        break cand;
                    }
                };
                for (cand, label) in [(pos_item, 1.0f32), (neg_item, 0.0f32)] {
                    let sample =
                        build_sample(world, user, uid, cand, label, hist_end, seller_v.is_some());
                    match split {
                        Split::Train => train.push(sample),
                        Split::Valid => valid.push(sample),
                        Split::Test => test.push(sample),
                    }
                }
            }
        }

        Dataset {
            name: cfg.name.clone(),
            schema,
            train,
            valid,
            test,
        }
    }

    /// Borrow a split.
    pub fn split(&self, s: Split) -> &[Sample] {
        match s {
            Split::Train => &self.train,
            Split::Valid => &self.valid,
            Split::Test => &self.test,
        }
    }

    /// Table III analogue statistics.
    #[expect(
        clippy::indexing_slicing,
        reason = "every schema has user, item and category fields and a first sequential field"
    )]
    pub fn stats(&self) -> DatasetStats {
        let mut items: HashSet<u32> = HashSet::new();
        for split in [&self.train, &self.valid, &self.test] {
            for s in split {
                items.insert(s.cat[1]);
                for &i in &s.hist[0] {
                    items.insert(i);
                }
            }
        }
        items.remove(&0);
        DatasetStats {
            name: self.name.clone(),
            users: self.schema.vocabs[0].size - 1,
            items: items.len(),
            instances: self.train.len() + self.valid.len() + self.test.len(),
            features: self.schema.num_features(),
            fields: self.schema.num_fields(),
        }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "hist_end <= history.len() at every call site in from_world"
)]
fn build_sample(
    world: &World,
    user: &crate::world::User,
    uid: u32,
    cand: u32,
    label: f32,
    hist_end: usize,
    has_seller: bool,
) -> Sample {
    let cfg = &world.config;
    let cand_item = world.item(cand);
    let mut cat = vec![uid, cand, cand_item.category];
    if has_seller {
        cat.push(cand_item.seller);
    }
    if cfg.num_action_types > 0 {
        cat.push(user.action_type);
    }
    // Keep the most recent `max_seq_len` behaviours (truncation; the paper
    // pads/truncates to a fixed length).
    let start = hist_end.saturating_sub(cfg.max_seq_len);
    let items: Vec<u32> = user.history[start..hist_end].to_vec();
    let cats: Vec<u32> = items.iter().map(|&i| world.item(i).category).collect();
    Sample {
        cat,
        hist: vec![items, cats],
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::generate(WorldConfig::tiny(), 5)
    }

    #[test]
    fn splits_have_two_samples_per_user() {
        let d = dataset();
        let users = d.schema.vocabs[0].size - 1;
        assert_eq!(d.train.len(), users * 2);
        assert_eq!(d.valid.len(), users * 2);
        assert_eq!(d.test.len(), users * 2);
    }

    #[test]
    fn labels_alternate_pos_neg() {
        let d = dataset();
        for pair in d.train.chunks(2) {
            assert_eq!(pair[0].label, 1.0);
            assert_eq!(pair[1].label, 0.0);
            // same user, same history
            assert_eq!(pair[0].cat[0], pair[1].cat[0]);
            assert_eq!(pair[0].hist, pair[1].hist);
        }
    }

    #[test]
    fn chronological_split_nesting() {
        // For the same user: train history ⊂ valid history ⊂ test history,
        // and the train target is the next item of the valid history.
        let d = dataset();
        let users = d.schema.vocabs[0].size - 1;
        for u in 0..users {
            let tr = &d.train[u * 2];
            let va = &d.valid[u * 2];
            let te = &d.test[u * 2];
            let (h_tr, h_va, h_te) = (&tr.hist[0], &va.hist[0], &te.hist[0]);
            // valid history ends with the train positive (when not truncated away)
            assert_eq!(*h_va.last().unwrap(), tr.cat[1]);
            assert_eq!(*h_te.last().unwrap(), va.cat[1]);
            assert!(h_tr.len() <= h_va.len() && h_va.len() <= h_te.len());
        }
    }

    #[test]
    fn negatives_never_interacted() {
        let w = World::generate(WorldConfig::tiny(), 5);
        let d = Dataset::from_world(&w, 5 ^ 0x00DA_7A5E ^ 1);
        for (uidx, user) in w.users.iter().enumerate() {
            let interacted: HashSet<u32> = user.history.iter().copied().collect();
            for split in [&d.train, &d.valid, &d.test] {
                let neg = &split[uidx * 2 + 1];
                assert!(!interacted.contains(&neg.cat[1]), "negative was interacted");
            }
        }
    }

    #[test]
    fn histories_respect_max_len() {
        let d = dataset();
        let max = d.schema.seq_len;
        for s in d.train.iter().chain(&d.valid).chain(&d.test) {
            assert!(s.hist[0].len() <= max);
            assert_eq!(s.hist[0].len(), s.hist[1].len());
            assert!(!s.hist[0].is_empty(), "train history never empty (L>=5)");
        }
    }

    #[test]
    fn category_sequence_matches_item_sequence() {
        let w = World::generate(WorldConfig::tiny(), 9);
        let d = Dataset::from_world(&w, 1);
        for s in &d.train {
            for (&it, &ct) in s.hist[0].iter().zip(&s.hist[1]) {
                assert_eq!(w.item(it).category, ct);
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let d = dataset();
        let st = d.stats();
        assert_eq!(st.instances, d.train.len() + d.valid.len() + d.test.len());
        assert_eq!(st.fields, 5);
        assert!(st.items > 0 && st.features > st.items);
    }

    #[test]
    fn alipay_schema_has_seven_fields() {
        let d = Dataset::generate(WorldConfig::alipay(0.05), 3);
        assert_eq!(d.schema.num_fields(), 7);
        assert_eq!(d.schema.num_cat(), 5);
    }
}
