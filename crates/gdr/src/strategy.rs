//! The repair strategies evaluated in the paper.

use std::fmt;

use gdr_repair::Update;
use rand::Rng;

/// A strategy for involving (or not involving) the user, matching §5.1–5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full GDR: VOI-ranked groups, active-learning ordering inside each
    /// group, learner takes over the rest of the group.
    Gdr,
    /// VOI-ranked groups, every update verified by the user, no learner.
    GdrNoLearning,
    /// VOI-ranked groups, user labels a *random* selection inside each group
    /// (passive learning), learner decides the remainder.
    GdrSLearning,
    /// No grouping, no VOI: a single pool ordered by learner uncertainty; the
    /// trained model decides whatever the feedback budget does not cover.
    ActiveLearningOnly,
    /// Groups ranked by size (largest first), every update verified.
    Greedy,
    /// Groups in random order, every update verified.
    RandomOrder,
    /// The fully automatic BatchRepair-style heuristic (no user).
    AutomaticHeuristic,
}

impl Strategy {
    /// All strategies, in the order the experiment harness reports them.
    pub const ALL: [Strategy; 7] = [
        Strategy::Gdr,
        Strategy::GdrNoLearning,
        Strategy::GdrSLearning,
        Strategy::ActiveLearningOnly,
        Strategy::Greedy,
        Strategy::RandomOrder,
        Strategy::AutomaticHeuristic,
    ];

    /// Does the strategy train and consult the learning component?
    pub(crate) fn uses_learner(self) -> bool {
        matches!(
            self,
            Strategy::Gdr | Strategy::GdrSLearning | Strategy::ActiveLearningOnly
        )
    }

    /// Does the strategy rank groups with the VOI benefit (Eq. 6)?
    pub(crate) fn uses_voi(self) -> bool {
        matches!(
            self,
            Strategy::Gdr | Strategy::GdrNoLearning | Strategy::GdrSLearning
        )
    }

    /// The within-group verification order (§4.2): the index into
    /// `remaining` of the update the user should see next, plus the picked
    /// update's committee uncertainty when the strategy computed it anyway
    /// (so callers surfacing the uncertainty need not re-consult the
    /// committee).
    ///
    /// Full GDR consults the committee and picks the most uncertain member
    /// (ties toward the earliest index), so the order adapts after every
    /// retrain; GDR-S-Learning samples uniformly (passive learning); every
    /// other strategy verifies in list order.  This is the per-strategy hook
    /// the pull-based engine consults — `remaining` must be non-empty, and
    /// the rng is drawn exactly once for the sampling strategy (callers that
    /// discard the pick still consume the draw, keeping replays aligned).
    pub(crate) fn pick_within_group<R: Rng>(
        self,
        remaining: &[Update],
        mut uncertainty: impl FnMut(&Update) -> f64,
        rng: &mut R,
    ) -> (usize, Option<f64>) {
        debug_assert!(!remaining.is_empty(), "cannot pick from an empty group");
        match self {
            Strategy::Gdr => remaining
                .iter()
                .enumerate()
                .map(|(i, u)| (i, uncertainty(u)))
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.0.cmp(&a.0))
                })
                .map(|(i, u)| (i, Some(u)))
                .unwrap_or((0, None)),
            Strategy::GdrSLearning => (rng.gen_range(0..remaining.len()), None),
            _ => (0, None),
        }
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Gdr => "GDR",
            Strategy::GdrNoLearning => "GDR-NoLearning",
            Strategy::GdrSLearning => "GDR-S-Learning",
            Strategy::ActiveLearningOnly => "Active-Learning",
            Strategy::Greedy => "Greedy",
            Strategy::RandomOrder => "Random",
            Strategy::AutomaticHeuristic => "Heuristic",
        }
    }
}

gdr_relation::state_enum! { Strategy, "strategy" {
    0 => Gdr,
    1 => GdrNoLearning,
    2 => GdrSLearning,
    3 => ActiveLearningOnly,
    4 => Greedy,
    5 => RandomOrder,
    6 => AutomaticHeuristic,
} }

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_matches_the_paper() {
        assert!(Strategy::Gdr.uses_learner());
        assert!(Strategy::Gdr.uses_voi());

        assert!(Strategy::GdrNoLearning.uses_voi());
        assert!(!Strategy::GdrNoLearning.uses_learner());

        assert!(Strategy::GdrSLearning.uses_voi());
        assert!(Strategy::GdrSLearning.uses_learner());

        assert!(Strategy::ActiveLearningOnly.uses_learner());
        assert!(!Strategy::ActiveLearningOnly.uses_voi());

        assert!(!Strategy::Greedy.uses_voi());
        assert!(!Strategy::Greedy.uses_learner());

        assert!(!Strategy::RandomOrder.uses_voi());

        assert!(!Strategy::AutomaticHeuristic.uses_learner());
    }

    #[test]
    fn within_group_pick_follows_the_strategy() {
        use gdr_relation::Value;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let remaining: Vec<Update> = (0..4)
            .map(|t| Update::new(t, 0, Value::from("x"), 0.5))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        // GDR: most uncertain wins, earliest index on ties; the computed
        // uncertainty rides along.
        let pick = Strategy::Gdr.pick_within_group(
            &remaining,
            |u| if u.tuple == 2 { 0.9 } else { 0.1 },
            &mut rng,
        );
        assert_eq!(pick, (2, Some(0.9)));
        let tied = Strategy::Gdr.pick_within_group(&remaining, |_| 0.5, &mut rng);
        assert_eq!(tied, (0, Some(0.5)));
        // Non-learning strategies verify in list order without consulting
        // the committee.
        for strategy in [
            Strategy::GdrNoLearning,
            Strategy::Greedy,
            Strategy::RandomOrder,
        ] {
            assert_eq!(
                strategy.pick_within_group(&remaining, |_| 0.0, &mut rng),
                (0, None)
            );
        }
        // Passive sampling stays within bounds and consumes the rng.
        for _ in 0..16 {
            let (pick, uncertainty) =
                Strategy::GdrSLearning.pick_within_group(&remaining, |_| 0.0, &mut rng);
            assert!(pick < remaining.len());
            assert_eq!(uncertainty, None);
        }
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
        assert_eq!(Strategy::Gdr.to_string(), "GDR");
        assert_eq!(Strategy::RandomOrder.to_string(), "Random");
    }
}
