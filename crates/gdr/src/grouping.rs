//! Grouping suggested updates for batch inspection.
//!
//! §3, "Grouping Updates": "We use a grouping function where the tuples with
//! the same update value in a given attribute are grouped together."  Groups
//! serve two purposes: the user can inspect related suggestions in one batch
//! (e.g. *all* tuples whose city should become "Michigan City"), and the
//! learner receives correlated training examples.
//!
//! Two representations coexist:
//!
//! * [`group_updates`] materialises the groups of a full update snapshot —
//!   the from-scratch path used by tests, benches, and one-shot callers;
//! * [`GroupIndex`] is the *persistent* form the interactive loop maintains
//!   across rounds: groups are keyed on `(AttrId, ValueId)`, and for each
//!   cell in the repair state's net suggestion delta the ranker removes the
//!   cell's old suggestion and inserts its current one.  Members are keyed
//!   by tuple, so the order in which cells are applied does not matter.  The
//!   ranked order lives in a max-ordered structure so a re-rank touches only
//!   the groups whose score actually changed (see the invalidation protocol
//!   in [`crate::voi`]).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use gdr_relation::{AttrId, Schema, TupleId, Value, ValueId};
use gdr_repair::Update;

/// A group of suggested updates sharing the target attribute and the
/// suggested value.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateGroup {
    /// The attribute all members modify.
    pub attr: AttrId,
    /// The value all members suggest.
    pub value: Value,
    /// The member updates, ordered by tuple id.
    pub updates: Vec<Update>,
}

impl UpdateGroup {
    /// Number of member updates.
    pub(crate) fn len(&self) -> usize {
        self.updates.len()
    }

    /// Human-readable label, e.g. `CT := 'Michigan City' (3 updates)`.
    pub fn describe(&self, schema: &Schema) -> String {
        format!(
            "{} := '{}' ({} updates)",
            schema.attr_name(self.attr),
            self.value.render(),
            self.updates.len()
        )
    }
}

/// Groups a set of suggested updates by `(attribute, suggested value)`.
///
/// Groups are returned in a deterministic order (by attribute, then value)
/// and their members are ordered by tuple id; ranking happens downstream.
pub fn group_updates(updates: &[Update]) -> Vec<UpdateGroup> {
    let mut map: BTreeMap<(AttrId, Value), Vec<Update>> = BTreeMap::new();
    for update in updates {
        map.entry((update.attr, update.value.clone()))
            .or_default()
            .push(update.clone());
    }
    map.into_iter()
        .map(|((attr, value), mut updates)| {
            updates.sort_by_key(|u| u.tuple);
            UpdateGroup {
                attr,
                value,
                updates,
            }
        })
        .collect()
}

/// Identifier of a live group: the target attribute and the interned id of
/// the suggested value.
pub type GroupKey = (AttrId, ValueId);

/// A score wrapper ordering *descending* with a total order.
///
/// `-0.0` is canonicalised to `+0.0` on construction so the total order
/// agrees with the `partial_cmp`-based comparator of the from-scratch sort
/// for every score the benefit formula can produce (finite, non-NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoreDesc(f64);

impl ScoreDesc {
    fn new(score: f64) -> ScoreDesc {
        debug_assert!(!score.is_nan(), "group scores must not be NaN");
        ScoreDesc(if score == 0.0 { 0.0 } else { score })
    }
}

impl Eq for ScoreDesc {}

impl PartialOrd for ScoreDesc {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoreDesc {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// Best-first ordering of ranked groups: higher score first, ties broken by
/// `(attr, value)` ascending — the same comparator the from-scratch sort
/// uses, so incremental and from-scratch rankings agree exactly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RankKey {
    score: ScoreDesc,
    attr: AttrId,
    value: Value,
}

/// One group of the persistent index.
#[derive(Debug, Clone)]
pub struct IndexedGroup {
    /// The attribute all members modify.
    pub attr: AttrId,
    /// The value all members suggest.
    pub value: Value,
    /// Members keyed (and therefore iterated) by tuple id.
    members: BTreeMap<TupleId, Update>,
    /// The group's last computed score (stale while the group is dirty).
    score: f64,
    /// Whether the group currently participates in the ranked order.
    in_ranked: bool,
}

impl IndexedGroup {
    /// Number of member updates.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// The member updates in ascending tuple order.
    pub(crate) fn updates(&self) -> impl Iterator<Item = &Update> {
        self.members.values()
    }

    /// Materialises the group in the snapshot representation.
    pub(crate) fn to_group(&self) -> UpdateGroup {
        UpdateGroup {
            attr: self.attr,
            value: self.value.clone(),
            updates: self.members.values().cloned().collect(),
        }
    }
}

/// A persistent `(attribute, suggested value)` index over the
/// `PossibleUpdates` list, maintained incrementally by
/// `GroupIndex::insert` and `GroupIndex::remove`, with a max-ordered
/// ranking over the group scores.
///
/// The index itself is score-agnostic: callers mark groups dirty (directly,
/// per attribute, or wholesale), compute scores however they like, and feed
/// them back through `GroupIndex::set_score`; `GroupIndex::best` and
/// `GroupIndex::ranking` then read the max-ordered structure without
/// touching clean groups.
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    groups: HashMap<GroupKey, IndexedGroup>,
    /// Live value-ids per attribute, for attribute-wide invalidation.
    by_attr: HashMap<AttrId, HashSet<ValueId>>,
    /// Deterministic `(attr, value)` order over live groups (the order
    /// [`group_updates`] returns them in).
    order: BTreeMap<(AttrId, Value), GroupKey>,
    /// Scored groups, best first.
    ranked: BTreeMap<RankKey, GroupKey>,
    /// Groups whose score is stale.
    dirty: BTreeSet<GroupKey>,
}

impl GroupIndex {
    /// An empty index.
    pub(crate) fn new() -> GroupIndex {
        GroupIndex::default()
    }

    /// Builds the index from a snapshot of suggestions.  `lookup` must
    /// resolve a suggested value to its interned id (suggestion values are
    /// always interned by the generator, so resolution cannot fail).
    pub(crate) fn from_updates<'a, F>(
        lookup: F,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Self
    where
        F: Fn(AttrId, &Value) -> Option<ValueId>,
    {
        let mut index = GroupIndex::new();
        for update in updates {
            index.insert(&lookup, update.clone());
        }
        index
    }

    /// The attributes with at least one live group.
    pub(crate) fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.by_attr.keys().copied()
    }

    /// Adds a member update to its group (creating the group on first use)
    /// and marks the group dirty.
    pub(crate) fn insert<F>(&mut self, lookup: F, update: Update)
    where
        F: Fn(AttrId, &Value) -> Option<ValueId>,
    {
        let id = lookup(update.attr, &update.value)
            .expect("suggestion values are interned before they are indexed");
        let key = (update.attr, id);
        let group = self.groups.entry(key).or_insert_with(|| {
            self.by_attr.entry(update.attr).or_default().insert(id);
            self.order.insert((update.attr, update.value.clone()), key);
            IndexedGroup {
                attr: update.attr,
                value: update.value.clone(),
                members: BTreeMap::new(),
                score: 0.0,
                in_ranked: false,
            }
        });
        let replaced = group.members.insert(update.tuple, update);
        debug_assert!(
            replaced.is_none(),
            "a member must be retired before it is re-added"
        );
        self.mark_dirty(key);
    }

    /// Retires a member update, dropping its group when it empties.
    pub(crate) fn remove<F>(&mut self, lookup: F, update: &Update)
    where
        F: Fn(AttrId, &Value) -> Option<ValueId>,
    {
        let Some(id) = lookup(update.attr, &update.value) else {
            debug_assert!(false, "retired suggestion value was never interned");
            return;
        };
        let key = (update.attr, id);
        let Some(group) = self.groups.get_mut(&key) else {
            debug_assert!(false, "retired suggestion was not indexed");
            return;
        };
        let removed = group.members.remove(&update.tuple);
        debug_assert!(removed.is_some(), "retired member was not indexed");
        if group.members.is_empty() {
            let group = self.groups.remove(&key).expect("group exists");
            self.order.remove(&(group.attr, group.value.clone()));
            if let Some(ids) = self.by_attr.get_mut(&group.attr) {
                ids.remove(&id);
                if ids.is_empty() {
                    self.by_attr.remove(&group.attr);
                }
            }
            if group.in_ranked {
                self.ranked.remove(&RankKey {
                    score: ScoreDesc::new(group.score),
                    attr: group.attr,
                    value: group.value,
                });
            }
            self.dirty.remove(&key);
        } else {
            self.mark_dirty(key);
        }
    }

    /// Marks one group's score stale, pulling it out of the ranked order
    /// until [`GroupIndex::set_score`] is called for it again.
    pub(crate) fn mark_dirty(&mut self, key: GroupKey) {
        if let Some(group) = self.groups.get_mut(&key) {
            if group.in_ranked {
                group.in_ranked = false;
                let rank_key = RankKey {
                    score: ScoreDesc::new(group.score),
                    attr: group.attr,
                    value: group.value.clone(),
                };
                self.ranked.remove(&rank_key);
            }
            self.dirty.insert(key);
        }
    }

    /// Marks every group of an attribute stale (its rules' statistics moved).
    pub(crate) fn mark_attr_dirty(&mut self, attr: AttrId) {
        let keys: Vec<GroupKey> = self
            .by_attr
            .get(&attr)
            .map(|ids| ids.iter().map(|&id| (attr, id)).collect())
            .unwrap_or_default();
        for key in keys {
            self.mark_dirty(key);
        }
    }

    /// Marks every group stale.
    pub(crate) fn mark_all_dirty(&mut self) {
        let keys: Vec<GroupKey> = self.groups.keys().copied().collect();
        for key in keys {
            self.mark_dirty(key);
        }
    }

    /// The currently stale groups, in deterministic key order.
    pub(crate) fn dirty_keys(&self) -> Vec<GroupKey> {
        self.dirty.iter().copied().collect()
    }

    /// Drains and returns the stale groups, in deterministic key order.
    pub(crate) fn take_dirty(&mut self) -> Vec<GroupKey> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// A group by key.
    pub(crate) fn group(&self, key: GroupKey) -> Option<&IndexedGroup> {
        self.groups.get(&key)
    }

    /// Stores a freshly computed score and (re-)inserts the group into the
    /// ranked order.
    pub(crate) fn set_score(&mut self, key: GroupKey, score: f64) {
        let Some(group) = self.groups.get_mut(&key) else {
            return;
        };
        if group.in_ranked {
            let old = RankKey {
                score: ScoreDesc::new(group.score),
                attr: group.attr,
                value: group.value.clone(),
            };
            self.ranked.remove(&old);
        }
        group.score = score;
        group.in_ranked = true;
        let rank_key = RankKey {
            score: ScoreDesc::new(score),
            attr: group.attr,
            value: group.value.clone(),
        };
        self.ranked.insert(rank_key, key);
        self.dirty.remove(&key);
    }

    /// The best-ranked group and its score.  All groups must have been
    /// scored since they were last marked dirty.
    pub(crate) fn best(&self) -> Option<(&IndexedGroup, f64)> {
        debug_assert!(self.dirty.is_empty(), "best() read while groups are dirty");
        self.ranked
            .values()
            .next()
            .map(|key| &self.groups[key])
            .map(|g| (g, g.score))
    }

    /// The highest group score, floored at zero (the `g_max` of the quota
    /// formula).
    pub(crate) fn max_score(&self) -> f64 {
        self.best().map(|(_, s)| s).unwrap_or(f64::MIN).max(0.0)
    }

    /// Every group best-first (score descending, ties by `(attr, value)`).
    pub(crate) fn ranking(&self) -> Vec<(&IndexedGroup, f64)> {
        debug_assert!(self.dirty.is_empty(), "ranking() read while dirty");
        self.ranked
            .values()
            .map(|key| &self.groups[key])
            .map(|g| (g, g.score))
            .collect()
    }

    /// Every group in the deterministic `(attr, value)` order — the order
    /// [`group_updates`] materialises groups in.
    pub(crate) fn groups_in_default_order(&self) -> Vec<UpdateGroup> {
        self.order
            .values()
            .map(|key| self.groups[key].to_group())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(tuple: usize, attr: usize, value: &str) -> Update {
        Update::new(tuple, attr, Value::from(value), 0.5)
    }

    #[test]
    fn groups_by_attribute_and_value() {
        let updates = vec![
            update(2, 3, "Michigan City"),
            update(4, 3, "Michigan City"),
            update(3, 3, "Michigan City"),
            update(5, 5, "46825"),
            update(8, 5, "46825"),
            update(6, 3, "Westville"),
        ];
        let groups = group_updates(&updates);
        assert_eq!(groups.len(), 3);
        // Deterministic order: attr 3 before attr 5; values sorted within.
        assert_eq!(groups[0].attr, 3);
        assert_eq!(groups[0].value, Value::from("Michigan City"));
        assert_eq!(
            groups[0]
                .updates
                .iter()
                .map(|u| u.tuple)
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(groups[1].value, Value::from("Westville"));
        assert_eq!(groups[2].attr, 5);
        assert_eq!(groups[2].len(), 2);
    }

    #[test]
    fn empty_input_gives_no_groups() {
        assert!(group_updates(&[]).is_empty());
    }

    #[test]
    fn same_value_different_attr_is_a_different_group() {
        let updates = vec![update(0, 1, "46360"), update(0, 2, "46360")];
        let groups = group_updates(&updates);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.len() == 1));
        assert!(!groups[0].updates.is_empty());
    }

    /// A stand-in for the table's per-attribute dictionaries: one shared
    /// interner handing out stable ids on demand.
    fn make_lookup() -> impl Fn(AttrId, &Value) -> Option<ValueId> {
        let interner = std::cell::RefCell::new(gdr_relation::ValueInterner::new());
        move |_, value| Some(interner.borrow_mut().intern_ref(value))
    }

    fn sample_updates() -> Vec<Update> {
        vec![
            update(2, 3, "Michigan City"),
            update(4, 3, "Michigan City"),
            update(3, 3, "Michigan City"),
            update(5, 5, "46825"),
            update(8, 5, "46825"),
            update(6, 3, "Westville"),
        ]
    }

    #[test]
    fn index_mirrors_group_updates() {
        let updates = sample_updates();
        let lookup = make_lookup();
        let index = GroupIndex::from_updates(&lookup, updates.iter());
        assert_eq!(index.groups.len(), 3);
        let materialised = index.groups_in_default_order();
        assert_eq!(materialised, group_updates(&updates));
        let mut attrs: Vec<AttrId> = index.attrs().collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec![3, 5]);
    }

    #[test]
    fn events_add_and_retire_members() {
        let updates = sample_updates();
        let lookup = make_lookup();
        let mut index = GroupIndex::from_updates(&lookup, updates.iter());
        // Retire one member of the Michigan City group.
        index.remove(&lookup, &update(4, 3, "Michigan City"));
        // Retire the whole zip group.
        index.remove(&lookup, &update(5, 5, "46825"));
        index.remove(&lookup, &update(8, 5, "46825"));
        // And add a brand-new group.
        index.insert(&lookup, update(1, 4, "IN"));

        let mut remaining = sample_updates();
        remaining.retain(|u| u.tuple != 4 && u.attr != 5);
        remaining.push(update(1, 4, "IN"));
        assert_eq!(index.groups_in_default_order(), group_updates(&remaining));
        assert!(index.attrs().all(|a| a != 5));
    }

    #[test]
    fn ranking_orders_by_score_then_attr_value() {
        let updates = sample_updates();
        let lookup = make_lookup();
        let mut index = GroupIndex::from_updates(&lookup, updates.iter());
        let keys = index.take_dirty();
        assert_eq!(keys.len(), 3);
        for key in &keys {
            let len = index.group(*key).unwrap().len();
            // Score two groups equally to exercise the tie-break.
            index.set_score(*key, if len >= 2 { 2.0 } else { 1.0 });
        }
        let ranking = index.ranking();
        let labels: Vec<(AttrId, String)> = ranking
            .iter()
            .map(|(g, _)| (g.attr, g.value.render().into_owned()))
            .collect();
        // Tie on 2.0 between (3, Michigan City) and (5, 46825): attr wins.
        assert_eq!(
            labels,
            vec![
                (3, "Michigan City".to_string()),
                (5, "46825".to_string()),
                (3, "Westville".to_string()),
            ]
        );
        let (best, score) = index.best().unwrap();
        assert_eq!(best.attr, 3);
        assert_eq!(score, 2.0);
        assert_eq!(index.max_score(), 2.0);
    }

    #[test]
    fn dirty_marks_pull_groups_out_of_the_ranking() {
        let updates = sample_updates();
        let lookup = make_lookup();
        let mut index = GroupIndex::from_updates(&lookup, updates.iter());
        for key in index.take_dirty() {
            index.set_score(key, 1.0);
        }
        assert_eq!(index.ranking().len(), 3);
        index.mark_attr_dirty(3);
        assert_eq!(index.dirty_keys().len(), 2);
        // Only the invalidated groups need rescoring.
        for key in index.take_dirty() {
            let len = index.group(key).unwrap().len();
            index.set_score(key, len as f64);
        }
        assert_eq!(index.ranking().len(), 3);
        let (best, score) = index.best().unwrap();
        assert_eq!(best.value, Value::from("Michigan City"));
        assert_eq!(score, 3.0);
    }

    #[test]
    fn negative_zero_scores_rank_like_positive_zero() {
        let updates = [update(0, 1, "a"), update(1, 1, "b")];
        let lookup = make_lookup();
        let mut index = GroupIndex::from_updates(&lookup, updates.iter());
        let keys = index.take_dirty();
        index.set_score(keys[0], -0.0);
        index.set_score(keys[1], 0.0);
        // Equal scores → (attr, value) tie-break: "a" before "b".
        let ranking = index.ranking();
        assert_eq!(ranking[0].0.value, Value::from("a"));
        assert_eq!(ranking[1].0.value, Value::from("b"));
    }

    #[test]
    fn describe_names_the_attribute() {
        let schema = Schema::new(&["Name", "SRC", "STR", "CT", "STT", "ZIP"]);
        let group = UpdateGroup {
            attr: 3,
            value: Value::from("Michigan City"),
            updates: vec![update(2, 3, "Michigan City")],
        };
        let text = group.describe(&schema);
        assert!(text.contains("CT"));
        assert!(text.contains("Michigan City"));
        assert!(text.contains("1 updates"));
    }
}
