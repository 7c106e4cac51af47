//! Session store semantics (DESIGN.md §15).
//!
//! The store keeps base histories in columns and per-user mutable state in
//! a sparse overlay. These tests pin it against a plain model of the
//! semantics — one owned history, version and cache per session — over
//! random operation sequences, and check that concurrent readers only ever
//! see a base history followed by a prefix of that user's ingests.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use mbssl::core::serve::SessionStore;
use mbssl::data::{Behavior, Dataset, ItemId, Sequence, UserId};
use proptest::prelude::*;

const NUM_ITEMS: u32 = 6;
/// User ids drawn by the operations; ids past the dataset's users are
/// unknown to the store until first touched.
const USER_IDS: u32 = 9;
const EPOCHS: u64 = 3;

fn dataset(sequences: Vec<Sequence>) -> Dataset {
    Dataset {
        name: "session-store".into(),
        num_users: sequences.len(),
        num_items: NUM_ITEMS as usize,
        behaviors: Behavior::ALL.to_vec(),
        target_behavior: Behavior::Purchase,
        sequences,
    }
}

fn sequence(events: &[(ItemId, Behavior)]) -> Sequence {
    let mut seq = Sequence::new();
    for &(item, behavior) in events {
        seq.push(item, behavior);
    }
    seq
}

struct RefSession {
    history: Sequence,
    version: u64,
    /// `(epoch, version, z)` of the last accepted write-back.
    cached: Option<(u64, u64, Vec<f32>)>,
}

impl RefSession {
    fn new(history: Sequence) -> RefSession {
        RefSession {
            history,
            version: 0,
            cached: None,
        }
    }
}

/// The store's semantics written plainly: one owned session per known
/// user, indexed by user id.
struct Reference {
    sessions: Vec<Option<RefSession>>,
    popularity: Vec<u64>,
}

impl Reference {
    fn new(base: &[Sequence]) -> Reference {
        let mut sessions: Vec<Option<RefSession>> = (0..USER_IDS).map(|_| None).collect();
        let mut popularity = vec![0; NUM_ITEMS as usize + 1];
        for (user, seq) in base.iter().enumerate() {
            sessions[user] = Some(RefSession::new(seq.clone()));
            for &item in &seq.items {
                popularity[item as usize] += 1;
            }
        }
        Reference {
            sessions,
            popularity,
        }
    }

    fn session(&mut self, user: UserId) -> &mut RefSession {
        self.sessions[user as usize].get_or_insert_with(|| RefSession::new(Sequence::new()))
    }

    fn len(&self) -> usize {
        self.sessions.iter().flatten().count()
    }

    fn version(&self, user: UserId) -> u64 {
        self.sessions[user as usize]
            .as_ref()
            .map_or(0, |s| s.version)
    }
}

/// Checks every known session at every epoch, the session count and every
/// popularity count (snapshots of known users change nothing).
fn assert_matches(store: &SessionStore, reference: &Reference, step: usize) {
    assert_eq!(store.len(), reference.len(), "len after op {step}");
    for item in 0..=NUM_ITEMS + 1 {
        let want = reference
            .popularity
            .get(item as usize)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            store.popularity(item),
            want,
            "popularity of {item} after op {step}"
        );
    }
    for (user, session) in reference.sessions.iter().enumerate() {
        let Some(session) = session else { continue };
        for epoch in 0..EPOCHS {
            let snap = store.snapshot(user as UserId, epoch);
            let ctx = format!("user {user}, epoch {epoch}, after op {step}");
            assert_eq!(snap.history, session.history, "history of {ctx}");
            let seen: HashSet<ItemId> = session.history.items.iter().copied().collect();
            assert_eq!(snap.seen, seen, "seen of {ctx}");
            assert_eq!(snap.version, session.version, "version of {ctx}");
            let cached = session
                .cached
                .as_ref()
                .filter(|(e, v, _)| *e == epoch && *v == session.version)
                .map(|(_, _, z)| z.clone());
            assert_eq!(snap.cached, cached, "cached of {ctx}");
        }
    }
}

/// One random operation: `kind` picks ingest, snapshot or write-back.
type Op = ((u8, UserId, ItemId), (Behavior, u64, bool));

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            (0u8..3, 0..USER_IDS, 0..NUM_ITEMS + 2),
            (
                prop::sample::select(Behavior::ALL.to_vec()),
                0..EPOCHS,
                (0u8..2).prop_map(|s| s == 1),
            ),
        ),
        0..40,
    )
}

fn base_sequences() -> impl Strategy<Value = Vec<Sequence>> {
    (
        prop::collection::vec(
            prop::collection::vec(
                (
                    1..NUM_ITEMS + 1,
                    prop::sample::select(Behavior::ALL.to_vec()),
                ),
                0..5,
            ),
            0..6,
        ),
        0usize..6,
    )
        .prop_map(|(users, empty_at)| {
            let mut seqs: Vec<Sequence> = users.iter().map(|events| sequence(events)).collect();
            // Always at least one user with an empty base history.
            let at = empty_at % (seqs.len() + 1);
            seqs.insert(at, Sequence::new());
            seqs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_plain_sessions_over_random_ops(base in base_sequences(), ops in ops()) {
        let store = SessionStore::from_dataset(&dataset(base.clone()));
        let mut reference = Reference::new(&base);
        assert_matches(&store, &reference, 0);
        for (step, &((kind, user, item), (behavior, epoch, stale))) in ops.iter().enumerate() {
            match kind {
                0 => {
                    let result = store.ingest(user, item, behavior);
                    if item == 0 || item > NUM_ITEMS {
                        prop_assert!(result.is_err(), "item {} must be rejected", item);
                    } else {
                        prop_assert!(result.is_ok());
                        let session = reference.session(user);
                        session.history.push(item, behavior);
                        session.version += 1;
                        session.cached = None;
                        reference.popularity[item as usize] += 1;
                    }
                }
                1 => {
                    // Creates the session of an unknown user.
                    store.snapshot(user, epoch);
                    reference.session(user);
                }
                _ => {
                    let current = reference.version(user);
                    let version = if stale { current.checked_sub(1).unwrap_or(1) } else { current };
                    let z = vec![step as f32, epoch as f32];
                    store.store_interests(user, version, epoch, &z);
                    if let Some(session) = reference.sessions[user as usize].as_mut() {
                        if session.version == version {
                            session.cached = Some((epoch, version, z));
                        }
                    }
                }
            }
            assert_matches(&store, &reference, step + 1);
        }
    }
}

#[test]
fn concurrent_snapshots_see_a_prefix_of_each_users_ingests() {
    const BASE_USERS: u32 = 6;
    const INGESTS: usize = 1000;
    let base: Vec<Sequence> = (0..BASE_USERS)
        .map(|u| {
            let events: Vec<(ItemId, Behavior)> = (0..u)
                .map(|i| (1 + (u + i) % NUM_ITEMS, Behavior::ALL[i as usize % 4]))
                .collect();
            sequence(&events)
        })
        .collect();
    let store = SessionStore::from_dataset(&dataset(base.clone()));
    // Two writers, each owning base and unknown users.
    let owned: [Vec<UserId>; 2] = [vec![0, 2, 4, 7], vec![1, 3, 5, 8]];
    let planned = |user: UserId, i: usize| -> (ItemId, Behavior) {
        (
            1 + (user + i as u32 * 5) % NUM_ITEMS,
            Behavior::ALL[(user as usize + i) % 4],
        )
    };
    let expected = |user: UserId, n: usize| -> Sequence {
        let mut seq = base.get(user as usize).cloned().unwrap_or_default();
        for i in 0..n {
            let (item, behavior) = planned(user, i);
            seq.push(item, behavior);
        }
        seq
    };
    let writers_done = AtomicBool::new(false);
    // Two writers and two readers start together.
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let writers: Vec<_> = owned
            .iter()
            .map(|users| {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..INGESTS {
                        for &user in users {
                            let (item, behavior) = planned(user, i);
                            store.ingest(user, item, behavior).unwrap();
                        }
                    }
                })
            })
            .collect();
        for reader in 0..2u64 {
            let (store, writers_done, expected, start) = (&store, &writers_done, &expected, &start);
            s.spawn(move || {
                let mut last_version = [0u64; 9];
                start.wait();
                loop {
                    let done = writers_done.load(Ordering::Acquire);
                    for user in 0..9 as UserId {
                        let snap = store.snapshot(user, reader);
                        let n = snap.version as usize;
                        assert!(n <= INGESTS, "user {user}: version {n}");
                        assert!(n as u64 >= last_version[user as usize], "version went back");
                        last_version[user as usize] = n as u64;
                        let want = expected(user, n);
                        assert_eq!(snap.history, want, "user {user} at version {n}");
                        let seen: HashSet<ItemId> = want.items.iter().copied().collect();
                        assert_eq!(snap.seen, seen, "user {user} at version {n}");
                        // A write-back is either the encoding of exactly
                        // this version or dropped.
                        if let Some(z) = snap.cached {
                            assert_eq!(z, vec![n as f32], "user {user}: stale cache");
                        }
                        store.store_interests(user, snap.version, reader, &[n as f32]);
                    }
                    if done {
                        break;
                    }
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
    });
    // User 6 is a reader-created session that no writer owns.
    let ingested = |user: UserId| if user == 6 { 0 } else { INGESTS };
    for user in 0..9 as UserId {
        let snap = store.snapshot(user, 0);
        assert_eq!(snap.version as usize, ingested(user));
        assert_eq!(snap.history, expected(user, ingested(user)));
    }
    // Six base users plus unknown users 6, 7 and 8.
    assert_eq!(store.len(), 9);
    let mut popularity = vec![0u64; NUM_ITEMS as usize + 1];
    for user in 0..9 {
        for &item in &expected(user, ingested(user)).items {
            popularity[item as usize] += 1;
        }
    }
    for item in 1..=NUM_ITEMS {
        assert_eq!(
            store.popularity(item),
            popularity[item as usize],
            "item {item}"
        );
    }
}
