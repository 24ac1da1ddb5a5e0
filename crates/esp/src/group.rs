//! The shape checks every ESP iteration makes on its parallel group.

use loong_simcore::ids::InstanceId;

/// Checks the parallel group of one iteration: `instances` run it, in SP
/// ring order, and `masters` drive its decode (a prefill passes its
/// instances again).
///
/// # Panics
///
/// Panics if `instances` is empty or has duplicates, or `masters` is empty,
/// has duplicates or is not a subset of `instances`: the scheduler emitted
/// a malformed action.
pub(crate) fn check(instances: &[InstanceId], masters: &[InstanceId]) {
    assert!(
        !instances.is_empty(),
        "a parallel group needs at least one instance"
    );
    assert!(
        repeated(instances).is_none(),
        "duplicate instances in group"
    );
    assert!(
        !masters.is_empty(),
        "a parallel group needs at least one master"
    );
    assert!(repeated(masters).is_none(), "duplicate masters in group");
    assert!(
        masters.iter().all(|m| instances.contains(m)),
        "masters must be members of the group"
    );
}

/// The first instance `ids` lists a second time, if any.
pub(crate) fn repeated(ids: &[InstanceId]) -> Option<InstanceId> {
    ids.iter()
        .enumerate()
        .find(|&(k, i)| ids[..k].contains(i))
        .map(|(_, &i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Vec<InstanceId> {
        (0..4).map(InstanceId).collect()
    }

    #[test]
    fn group_basics() {
        // Any non-empty subset of the members may drive the decode, in any
        // order.
        let g = group();
        check(&g, &g);
        check(&g, &g[2..]);
        check(&g, &[InstanceId(3), InstanceId(0)]);
        check(&g[..1], &g[..1]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_group_rejected() {
        check(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate instances")]
    fn duplicate_members_rejected() {
        let members = [InstanceId(0), InstanceId(0)];
        check(&members, &members);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_masters_rejected() {
        check(&[InstanceId(0)], &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate masters")]
    fn duplicate_masters_rejected() {
        check(&group(), &[InstanceId(0), InstanceId(0)]);
    }
}
