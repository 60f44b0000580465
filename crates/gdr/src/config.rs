//! Configuration of a GDR session.

use gdr_learn::ForestConfig;
use gdr_relation::codec::{self, CodecError};

/// Tunable parameters of the interactive repair session.
#[derive(Debug, Clone)]
pub struct GdrConfig {
    /// `n_s` — how many updates the user labels before the learner is
    /// retrained and the remaining updates are re-ordered (§4.2,
    /// "Interactive Active Learning Session").
    pub ns_batch: usize,
    /// Minimum number of user verifications per selected group for the
    /// learning strategies, so even top-ranked groups contribute training
    /// examples.  The paper's `d_i = E · (1 − g(c_i)/g_max)` formula gives
    /// zero for the top group; without a floor the learner would never see a
    /// labelled example from the most beneficial groups.
    pub min_verifications_per_group: usize,
    /// Minimum number of training examples an attribute model needs before
    /// its predictions are allowed to be applied automatically.
    pub learner_min_training: usize,
    /// Random-forest hyper-parameters for the per-attribute models (the paper
    /// uses `k = 10` trees).
    pub forest: ForestConfig,
    /// Seed for the session's own randomness (the Random strategy's group
    /// order and the GDR-S-Learning within-group sampling).
    pub seed: u64,
    /// Record a quality checkpoint every this many user verifications
    /// (1 = after every answer).
    pub checkpoint_every: usize,
}

impl Default for GdrConfig {
    fn default() -> Self {
        GdrConfig {
            ns_batch: 10,
            min_verifications_per_group: 2,
            learner_min_training: 10,
            forest: ForestConfig::default(),
            seed: 0xC0FFEE,
            checkpoint_every: 1,
        }
    }
}

impl GdrConfig {
    /// A configuration tuned for fast unit/integration tests: smaller forest,
    /// less frequent checkpoints.
    pub fn fast() -> GdrConfig {
        GdrConfig {
            ns_batch: 5,
            min_verifications_per_group: 2,
            learner_min_training: 8,
            forest: ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
            seed: 7,
            checkpoint_every: 1,
        }
    }

    /// Rejects a decoded configuration that never checkpoints.
    fn check_decoded(&self) -> codec::Result<()> {
        if self.checkpoint_every == 0 {
            return Err(CodecError::new("checkpoint_every must be positive"));
        }
        Ok(())
    }
}

gdr_relation::state_record! {
    "config" 3 => GdrConfig {
        ns_batch, min_verifications_per_group, learner_min_training, forest, seed, checkpoint_every
    }
    check GdrConfig::check_decoded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = GdrConfig::default();
        assert_eq!(config.forest.trees, 10);
        assert!(config.ns_batch > 0);
        assert!(config.checkpoint_every > 0);
    }

    #[test]
    fn fast_config_uses_a_smaller_forest() {
        let config = GdrConfig::fast();
        assert!(config.forest.trees < GdrConfig::default().forest.trees);
    }
}
