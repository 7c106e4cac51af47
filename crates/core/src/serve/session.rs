//! Per-user session state: histories, seen-sets, popularity counts, and
//! the epoch-keyed interest cache (DESIGN.md §15).
//!
//! The histories a store is seeded with are held as three immutable
//! columns in the `.mbds` layout (DESIGN.md §16.1): `user_offsets`, and the
//! `items` and `behaviors` of every event, user-major — user `u`'s base
//! history is rows `user_offsets[u]..user_offsets[u + 1]`. Loading a
//! dataset is one O(events) copy into those columns, with no per-user heap
//! object: at 1M users and 10.5M events the columns take 58 MiB and fill
//! in about 0.1 s.
//!
//! Everything mutable lives in a sparse overlay, sharded (`SHARDS` mutexes
//! over hash-split user maps) so concurrent requests for different users
//! rarely contend. A user gets an overlay entry only when it ingests, has
//! interests cached, or is first seen beyond the base users. Each entry
//! holds the events appended since load, a monotone `version` and the
//! cached interests; a user without one is at version 0 with nothing
//! cached. Once a user has ingested, its entry also keeps the seen set of
//! base and tail items up to date, so a snapshot of a long-lived session
//! copies that set instead of re-hashing the whole history; any other
//! user's seen set is built from its (short) base slice per snapshot.
//! [`SessionStore::ingest`] appends the event, bumps the version,
//! and thereby invalidates **only that user's** cached encoding — no other
//! session is touched. Cached interests are additionally keyed by the
//! serving-engine epoch, so a checkpoint hot-swap
//! ([`super::Server::swap_engine`]) lazily invalidates every cache entry
//! without walking the store: a stale epoch simply fails the match on next
//! read and the user is re-encoded through the new engine.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mbssl_data::{Behavior, Dataset, ItemId, Sequence, UserId};

/// Shard count; power of two so the shard pick is a mask.
const SHARDS: usize = 16;

/// A cached interest encoding, valid only while both the engine epoch
/// and the session version still match.
struct CachedInterests {
    epoch: u64,
    version: u64,
    z: Vec<f32>,
}

/// The mutable part of one session: events ingested after load, the
/// version they advanced it to, and the cached encoding.
#[derive(Default)]
struct Overlay {
    tail: Sequence,
    /// Base and tail items; filled only once `tail` is non-empty.
    seen: HashSet<ItemId>,
    version: u64,
    cached: Option<CachedInterests>,
}

/// Everything one request needs from a session, copied out of the store
/// so encoding and ranking run lock-free.
pub struct UserSnapshot {
    /// The user's full event history (the engine truncates).
    pub history: Sequence,
    /// Session version at snapshot time; hand it back to
    /// [`SessionStore::store_interests`] so a concurrent ingest can't be
    /// overwritten by a stale encoding.
    pub version: u64,
    /// Items the user has interacted with.
    pub seen: HashSet<ItemId>,
    /// Cached interests (`[k, d]`) if still valid for `epoch`.
    pub cached: Option<Vec<f32>>,
}

/// Columnar base histories plus a sharded overlay of per-user mutable
/// state, shared by the server workers.
pub struct SessionStore {
    /// `users + 1` offsets: base user `u`'s events are rows
    /// `user_offsets[u]..user_offsets[u + 1]` of `items` and `behaviors`.
    user_offsets: Box<[usize]>,
    items: Box<[ItemId]>,
    behaviors: Box<[Behavior]>,
    overlays: Box<[Mutex<HashMap<UserId, Overlay>>]>,
    /// Sessions created for users beyond the base ones.
    new_sessions: AtomicUsize,
    /// Interaction count per item id (index `0` unused), maintained on
    /// ingest and consulted by the popularity-debias rerank stage.
    popularity: Box<[AtomicU64]>,
    num_items: usize,
}

impl SessionStore {
    /// An empty store over a catalog of `num_items` items.
    pub fn new(num_items: usize) -> SessionStore {
        SessionStore::from_columns(vec![0], Vec::new(), Vec::new(), vec![0; num_items + 1])
    }

    /// Seeds sessions and popularity counts from a dataset (user `u` ↔
    /// `dataset.sequences[u]`, the same mapping the `recommend` CLI uses),
    /// in one pass over its events.
    pub fn from_dataset(dataset: &Dataset) -> SessionStore {
        let events = dataset.num_interactions();
        let mut user_offsets = Vec::with_capacity(dataset.sequences.len() + 1);
        let mut items = Vec::with_capacity(events);
        let mut behaviors = Vec::with_capacity(events);
        let mut popularity = vec![0u64; dataset.num_items + 1];
        user_offsets.push(0);
        for seq in &dataset.sequences {
            for &item in &seq.items {
                popularity[item as usize] += 1;
            }
            items.extend_from_slice(&seq.items);
            behaviors.extend_from_slice(&seq.behaviors);
            user_offsets.push(items.len());
        }
        SessionStore::from_columns(user_offsets, items, behaviors, popularity)
    }

    fn from_columns(
        user_offsets: Vec<usize>,
        items: Vec<ItemId>,
        behaviors: Vec<Behavior>,
        popularity: Vec<u64>,
    ) -> SessionStore {
        let overlays = (0..SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SessionStore {
            num_items: popularity.len() - 1,
            user_offsets: user_offsets.into_boxed_slice(),
            items: items.into_boxed_slice(),
            behaviors: behaviors.into_boxed_slice(),
            overlays,
            new_sessions: AtomicUsize::new(0),
            popularity: popularity.into_iter().map(AtomicU64::new).collect(),
        }
    }

    fn base_users(&self) -> usize {
        self.user_offsets.len() - 1
    }

    fn is_base(&self, user: UserId) -> bool {
        (user as usize) < self.base_users()
    }

    /// Base history rows of `user` (empty beyond the base users).
    fn base_rows(&self, user: UserId) -> std::ops::Range<usize> {
        if self.is_base(user) {
            self.user_offsets[user as usize]..self.user_offsets[user as usize + 1]
        } else {
            0..0
        }
    }

    fn shard(&self, user: UserId) -> MutexGuard<'_, HashMap<UserId, Overlay>> {
        self.overlays[user as usize % SHARDS]
            .lock()
            .expect("a thread panicked holding a session shard")
    }

    /// `user`'s overlay, created if absent; a new user beyond the base
    /// ones counts as a new session.
    fn overlay_mut<'a>(
        &self,
        shard: &'a mut HashMap<UserId, Overlay>,
        user: UserId,
    ) -> &'a mut Overlay {
        shard.entry(user).or_insert_with(|| {
            if !self.is_base(user) {
                self.new_sessions.fetch_add(1, Ordering::Relaxed);
            }
            Overlay::default()
        })
    }

    /// Catalog size this store was built for.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of known sessions: every base user plus each user first
    /// seen since.
    pub fn len(&self) -> usize {
        self.base_users() + self.new_sessions.load(Ordering::Relaxed)
    }

    /// Whether no session exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global interaction count for `item`.
    pub fn popularity(&self, item: ItemId) -> u64 {
        self.popularity
            .get(item as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Appends one event to `user`'s history (creating the session if
    /// new), bumps the session version — invalidating only this user's
    /// cached encoding — and counts the item's popularity.
    pub fn ingest(&self, user: UserId, item: ItemId, behavior: Behavior) -> Result<(), String> {
        if item == 0 || item as usize > self.num_items {
            return Err(format!(
                "item {item} outside catalog 1..={}",
                self.num_items
            ));
        }
        let base = self.base_rows(user);
        let mut shard = self.shard(user);
        let overlay = self.overlay_mut(&mut shard, user);
        if overlay.tail.is_empty() {
            overlay.seen.extend(&self.items[base]);
        }
        overlay.tail.push(item, behavior);
        overlay.seen.insert(item);
        overlay.version += 1;
        overlay.cached = None;
        drop(shard);
        self.popularity[item as usize].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Copies out everything a request needs: the base history followed
    /// by the ingested tail, and its seen set. `epoch`
    /// filters the cache (a stale engine's encoding never leaks across a
    /// hot-swap). Unknown users get an empty session (cold-start: the
    /// encoder handles empty histories).
    pub fn snapshot(&self, user: UserId, epoch: u64) -> UserSnapshot {
        let base = self.base_rows(user);
        let mut history = Sequence::new();
        let (version, cached, seen) = {
            let mut shard = self.shard(user);
            let overlay = if self.is_base(user) {
                shard.get(&user)
            } else {
                Some(&*self.overlay_mut(&mut shard, user))
            };
            let tail_len = overlay.map_or(0, |o| o.tail.len());
            history.items.reserve_exact(base.len() + tail_len);
            history.behaviors.reserve_exact(base.len() + tail_len);
            history.items.extend_from_slice(&self.items[base.clone()]);
            history.behaviors.extend_from_slice(&self.behaviors[base]);
            match overlay {
                None => (0, None, None),
                Some(o) => {
                    history.items.extend_from_slice(&o.tail.items);
                    history.behaviors.extend_from_slice(&o.tail.behaviors);
                    let cached = o
                        .cached
                        .as_ref()
                        .filter(|c| c.epoch == epoch && c.version == o.version)
                        .map(|c| c.z.clone());
                    let seen = (!o.tail.is_empty()).then(|| o.seen.clone());
                    (o.version, cached, seen)
                }
            }
        };
        let seen = seen.unwrap_or_else(|| history.items.iter().copied().collect());
        UserSnapshot {
            history,
            version,
            seen,
            cached,
        }
    }

    /// Writes a freshly computed encoding back, unless the session moved
    /// on (version mismatch) while the batch was being served — a stale
    /// write must lose to a concurrent ingest. A user with no session yet
    /// is left without one.
    pub fn store_interests(&self, user: UserId, version: u64, epoch: u64, z: &[f32]) {
        let mut shard = self.shard(user);
        let current = match shard.get(&user) {
            Some(overlay) => overlay.version,
            None if self.is_base(user) => 0,
            None => return,
        };
        if current == version {
            self.overlay_mut(&mut shard, user).cached = Some(CachedInterests {
                epoch,
                version,
                z: z.to_vec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_appends_and_invalidates_only_that_user() {
        let store = SessionStore::new(100);
        store.store_interests(1, 0, 7, &[1.0]);
        // Unknown user: store_interests is a no-op, snapshot creates.
        assert!(store.snapshot(1, 7).cached.is_none());

        // Cache both users at epoch 7.
        store.snapshot(1, 7);
        store.snapshot(2, 7);
        store.store_interests(1, 0, 7, &[1.0]);
        store.store_interests(2, 0, 7, &[2.0]);
        assert_eq!(store.snapshot(1, 7).cached.as_deref(), Some(&[1.0][..]));
        assert_eq!(store.snapshot(2, 7).cached.as_deref(), Some(&[2.0][..]));

        store.ingest(1, 42, Behavior::Click).unwrap();
        let snap1 = store.snapshot(1, 7);
        assert!(snap1.cached.is_none(), "ingest must invalidate user 1");
        assert_eq!(snap1.history.items, vec![42]);
        assert_eq!(snap1.version, 1);
        assert!(snap1.seen.contains(&42));
        assert_eq!(
            store.snapshot(2, 7).cached.as_deref(),
            Some(&[2.0][..]),
            "user 2's cache must survive"
        );
        assert_eq!(store.popularity(42), 1);
    }

    #[test]
    fn epoch_mismatch_misses_without_clearing() {
        let store = SessionStore::new(10);
        store.snapshot(5, 1);
        store.store_interests(5, 0, 1, &[3.0]);
        assert!(store.snapshot(5, 2).cached.is_none(), "new epoch: miss");
        assert_eq!(
            store.snapshot(5, 1).cached.as_deref(),
            Some(&[3.0][..]),
            "old epoch entry still matches its own epoch"
        );
    }

    #[test]
    fn stale_write_back_loses_to_concurrent_ingest() {
        let store = SessionStore::new(10);
        store.snapshot(3, 1);
        let version_at_encode = store.snapshot(3, 1).version;
        store.ingest(3, 4, Behavior::Purchase).unwrap();
        store.store_interests(3, version_at_encode, 1, &[9.0]);
        assert!(
            store.snapshot(3, 1).cached.is_none(),
            "encoding of the pre-ingest history must not be cached"
        );
    }

    #[test]
    fn ingest_rejects_out_of_catalog_items() {
        let store = SessionStore::new(10);
        assert!(store.ingest(1, 0, Behavior::Click).is_err());
        assert!(store.ingest(1, 11, Behavior::Click).is_err());
        assert!(store.ingest(1, 10, Behavior::Click).is_ok());
    }
}
