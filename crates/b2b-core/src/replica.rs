//! Per-object replica state held by a coordinator.
//!
//! Figure 2 of the paper: the logical shared object is realised as
//! regulated coordination of replicas held at each organisation. A
//! [`Replica`] is one such replica plus the protocol bookkeeping the
//! engine needs: the member list in join order (which determines sponsor
//! selection), the group identifier, the agreed state tuple, replay
//! detection sets, and at most one active protocol run.

use crate::ids::{GroupId, ObjectId, RunId, StateId};
use crate::messages::{
    ConnectProposeMsg, ConnectRequestMsg, DecideMsg, DisconnectProposeMsg, DisconnectRequestMsg,
    MemberDecideMsg, MemberRespondMsg, ProposeMsg, RespondMsg, WireMsg,
};
use crate::object::B2BObject;
use b2b_crypto::{Digest32, PartyId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use thiserror::Error;

/// A state-coordination run at its proposer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProposerRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we sent (kept for recovery re-sends).
    pub propose: ProposeMsg,
    /// The authenticator `r_P` (revealed in m3).
    pub authenticator: [u8; 32],
    /// The successor state the run installs on success.
    pub new_state: Vec<u8>,
    /// Responses collected so far, by responder.
    pub responses: BTreeMap<PartyId, RespondMsg>,
    /// The m3, once computed (kept for recovery re-sends).
    pub decided: Option<DecideMsg>,
}

/// A state-coordination run at a recipient.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecipientRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we received.
    pub propose: ProposeMsg,
    /// The m2 we sent (re-sent on recovery or duplicate m1).
    pub my_response: RespondMsg,
    /// For accepted proposals: the successor state to install on a
    /// positive decide (body for overwrites, computed state for updates).
    pub pending_state: Option<Vec<u8>>,
}

/// What a membership run is changing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum MembershipChange {
    /// Admitting `subject`.
    Connect {
        /// The joining party.
        subject: PartyId,
        /// The subject's original signed request.
        request: ConnectRequestMsg,
        /// The sponsor's relay (kept for recovery re-sends).
        propose: ConnectProposeMsg,
    },
    /// Removing `subjects` (voluntarily or by eviction).
    Disconnect {
        /// The leaving parties.
        subjects: Vec<PartyId>,
        /// `true` for eviction.
        eviction: bool,
        /// The original signed request.
        request: DisconnectRequestMsg,
        /// The sponsor's relay.
        propose: DisconnectProposeMsg,
    },
}

/// A membership run at its sponsor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SponsorRun {
    /// Run label.
    pub run: RunId,
    /// What is being changed.
    pub change: MembershipChange,
    /// The authenticator revealed in the decide.
    pub authenticator: [u8; 32],
    /// The member list that results if agreed (join order).
    pub new_members: Vec<PartyId>,
    /// The group identifier that results if agreed.
    pub new_group: GroupId,
    /// The members polled (recipients of the proposal).
    pub polled: Vec<PartyId>,
    /// Responses collected so far.
    pub responses: BTreeMap<PartyId, MemberRespondMsg>,
    /// The decide, once computed.
    pub decided: Option<MemberDecideMsg>,
}

/// A membership run at a polled member.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemberRun {
    /// Run label.
    pub run: RunId,
    /// What is being changed.
    pub change: MembershipChange,
    /// The response we sent to the sponsor.
    pub my_response: MemberRespondMsg,
}

/// A voluntary disconnection at its subject, awaiting the sponsor's ack.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeavingRun {
    /// The request we sent.
    pub request: DisconnectRequestMsg,
    /// The sponsor we sent it to.
    pub sponsor: PartyId,
}

/// The at-most-one protocol run currently active at this replica.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ActiveRun {
    /// We proposed a state change.
    Proposer(ProposerRun),
    /// We are validating another party's state change.
    Recipient(RecipientRun),
    /// We sponsor a membership change.
    Sponsor(SponsorRun),
    /// We are polled about a membership change.
    Member(MemberRun),
    /// We asked to leave and await the ack.
    Leaving(LeavingRun),
}

impl ActiveRun {
    /// The run label, where one exists (a [`LeavingRun`] has none until the
    /// sponsor assigns it).
    pub fn run_id(&self) -> Option<RunId> {
        match self {
            ActiveRun::Proposer(r) => Some(r.run),
            ActiveRun::Recipient(r) => Some(r.run),
            ActiveRun::Sponsor(r) => Some(r.run),
            ActiveRun::Member(r) => Some(r.run),
            ActiveRun::Leaving(_) => None,
        }
    }
}

/// A queued membership request, deferred while another run is active
/// (§4.5.1: the sponsor blocks new coordination requests pending decision
/// on any active request).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum QueuedRequest {
    /// A connection request from a prospective member.
    Connect(ConnectRequestMsg),
    /// A disconnection/eviction request.
    Disconnect(DisconnectRequestMsg),
}

/// One party's replica of a shared object plus protocol bookkeeping.
pub struct Replica {
    /// The object alias.
    pub object_id: ObjectId,
    /// The application object (validation upcalls, state install).
    pub object: Box<dyn B2BObject>,
    /// Member list in join order: `members.last()` is the most recently
    /// joined member — the connection sponsor (§4.5.1).
    pub members: Vec<PartyId>,
    /// Current group identifier.
    pub group: GroupId,
    /// The agreed state tuple `t_agreed`.
    pub agreed: StateId,
    /// Bytes of the agreed state (checkpointed for recovery/rollback).
    pub agreed_state: Vec<u8>,
    /// Run labels seen, keyed by the agreed sequence number current when
    /// each was first seen (replay detection across runs). Pruned by the
    /// replay window alongside `seen_tuples`, so the set — and the
    /// snapshot written after every installation — stays bounded no
    /// matter how many rounds a replica lives through.
    pub seen_runs: HashMap<RunId, u64>,
    /// Proposal tuples ever seen: invariant 4 of §4.2.
    pub seen_tuples: HashSet<(u64, Digest32)>,
    /// At most one active run.
    pub active: Option<ActiveRun>,
    /// Membership requests deferred behind the active run.
    pub queued: Vec<QueuedRequest>,
    /// Responses we produced for already-completed runs, so a duplicate or
    /// post-recovery retransmission of m1/m3 gets a consistent re-reply.
    /// Stored pre-encoded (see [`StoredReply`]) so the per-install snapshot
    /// never re-serialises the window. Bounded: insert through
    /// [`Replica::remember_reply`].
    pub completed_replies: HashMap<RunId, StoredReply>,
    /// Insertion order of `completed_replies`, oldest first — the
    /// deterministic eviction order when the retention cap is exceeded.
    pub completed_order: VecDeque<RunId>,
    /// Runs remembered since the last checkpoint, i.e. re-replies whose
    /// slot the persistence layer has not written yet.
    pub dirty_replies: Vec<RunId>,
    /// Monotonic counter of remembered replies; assigns storage slots.
    pub reply_slots: u64,
    /// Set when this party has left (or been evicted from) the group; the
    /// replica is kept for inspection but no longer coordinates.
    pub detached: bool,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("object_id", &self.object_id)
            .field("members", &self.members)
            .field("group", &self.group)
            .field("agreed", &self.agreed)
            .field("active", &self.active.is_some())
            .field("detached", &self.detached)
            .finish()
    }
}

impl Replica {
    /// The current connection sponsor: the most recently joined member.
    pub fn sponsor(&self) -> &PartyId {
        self.members.last().expect("group is never empty")
    }

    /// The sponsor for a disconnection of `subjects`: the most recently
    /// joined member that is not itself leaving (§4.5.1).
    pub fn sponsor_for_disconnect(&self, subjects: &[PartyId]) -> Option<&PartyId> {
        self.members.iter().rev().find(|m| !subjects.contains(m))
    }

    /// Returns `true` if `party` is currently a member.
    pub fn is_member(&self, party: &PartyId) -> bool {
        self.members.contains(party)
    }

    /// The recipients of a proposal by `proposer`: all members but them.
    pub fn recipients(&self, proposer: &PartyId) -> Vec<PartyId> {
        self.members
            .iter()
            .filter(|m| *m != proposer)
            .cloned()
            .collect()
    }

    /// Records the re-reply for a completed run, evicting the oldest
    /// retained reply once more than `cap` are held. A peer retransmitting
    /// a run older than the cap gets silence and recovers through the
    /// normal state-transfer path; `cap == 0` retains nothing.
    ///
    /// The message is encoded to wire bytes **here, once**. The window used
    /// to hold `WireMsg` values and be re-serialised wholesale into every
    /// per-install snapshot, which made checkpointing O(window) — at the
    /// default cap of 64 that was the single largest cost of a coordination
    /// round, and it fell hardest on whoever proposes most (a pipelining
    /// proposer retains full decides; recipients only their response).
    /// Pre-encoded bytes keep every later touch — checkpoint, re-reply
    /// send — a plain byte copy.
    pub fn remember_reply(&mut self, run: RunId, reply: WireMsg, cap: usize) {
        if cap == 0 {
            return;
        }
        let slot = self.reply_slots % cap as u64;
        self.reply_slots += 1;
        let stored = StoredReply {
            slot,
            wire: reply.to_bytes(),
        };
        if self.completed_replies.insert(run, stored).is_none() {
            self.completed_order.push_back(run);
        }
        self.dirty_replies.push(run);
        while self.completed_replies.len() > cap {
            let Some(oldest) = self.completed_order.pop_front() else {
                break;
            };
            self.completed_replies.remove(&oldest);
        }
    }

    /// Decodes the retained re-reply for `run`, if the window still holds
    /// it. Only duplicate/post-recovery retransmissions and TTP evidence
    /// requests take this path, so decode-on-demand is the right trade.
    pub fn completed_reply(&self, run: &RunId) -> Option<WireMsg> {
        self.completed_replies
            .get(run)
            .and_then(|r| WireMsg::from_bytes(&r.wire))
    }

    /// Prunes replay-detection tuples that have fallen out of the window:
    /// after an installation, tuples at sequence numbers more than `window`
    /// behind the agreed state can no longer pass the exact-increment
    /// sequence check, so dropping them only degrades the misbehaviour
    /// label (generic sequence complaint instead of `ReplayedProposal`)
    /// while bounding the set — and the snapshot — across runs.
    pub fn prune_seen(&mut self, window: u64) {
        let floor = self.agreed.seq.saturating_sub(window);
        self.seen_tuples.retain(|(seq, _)| *seq >= floor);
        self.seen_runs.retain(|_, seen_at| *seen_at >= floor);
    }
}

/// A completed run's re-reply: the wire message pre-encoded at
/// [`Replica::remember_reply`] time, plus the snapshot-store slot it is
/// checkpointed under.
///
/// Slots are assigned round-robin over the retention cap, so the store
/// holds at most `cap` reply blobs per object no matter how many rounds
/// the replica lives through, and the main snapshot document only lists
/// `(run, slot)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredReply {
    /// Storage slot (`reply_slots % cap` at insert time).
    pub slot: u64,
    /// The encoded wire message ([`WireMsg::to_bytes`]).
    pub wire: Vec<u8>,
}

/// The durable image of a replica, written to the snapshot store after
/// every installation and membership change and reloaded on recovery.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Member list in join order.
    pub members: Vec<PartyId>,
    /// Group identifier.
    pub group: GroupId,
    /// Agreed state tuple.
    pub agreed: StateId,
    /// Agreed state bytes, hex-encoded. A byte vector would serialise as
    /// a JSON integer array — one boxed value per byte — which makes the
    /// per-install snapshot write O(state) with a constant large enough
    /// to dominate whole coordination rounds; hex keeps it one string.
    pub agreed_state: String,
    /// Replay-detection: runs seen, with the agreed seq each was seen at,
    /// packed as hex records of run id ‖ seq (see [`WINDOW_RECORD`]).
    ///
    /// The three window lists are packed for the same reason as
    /// `agreed_state`: this document is written at every protocol step,
    /// and a full window as `["<hex>",n]` pairs is ~192 small JSON trees
    /// to build and emit each time, about half of a sync update's CPU.
    pub seen_runs: String,
    /// Replay-detection: proposal tuples seen, packed as hex records of
    /// rand_hash ‖ seq.
    pub seen_tuples: String,
    /// The active run, if one was in progress.
    pub active: Option<ActiveRun>,
    /// Deferred membership requests.
    pub queued: Vec<QueuedRequest>,
    /// Re-replies for completed runs (so retransmitted traffic after a
    /// crash still receives the decide it is waiting for), packed as hex
    /// records of run id ‖ slot, oldest first. The reply bytes themselves
    /// live in per-slot store entries written once when each run completes
    /// — the per-install snapshot used to re-serialise the whole window
    /// (~64 full wire messages) on every write, which dominated round cost.
    pub completed_replies: String,
    /// Continuation point for slot assignment after recovery.
    pub reply_slots: u64,
    /// Whether the party had left the group.
    pub detached: bool,
}

/// Width of one packed replay-window record in a [`ReplicaSnapshot`]: a
/// 32-byte digest followed by a big-endian `u64`.
pub const WINDOW_RECORD: usize = 40;

/// Hex-encodes `(digest, n)` records at [`WINDOW_RECORD`] bytes each.
fn pack_window<'a>(records: impl Iterator<Item = (&'a Digest32, u64)>) -> String {
    let mut bytes = Vec::with_capacity(records.size_hint().0 * WINDOW_RECORD);
    for (digest, n) in records {
        bytes.extend_from_slice(&digest.0);
        bytes.extend_from_slice(&n.to_be_bytes());
    }
    hex::encode(bytes)
}

/// Inverse of [`pack_window`]; `field` names the list in the error.
fn unpack_window(field: &'static str, packed: &str) -> Result<Vec<(Digest32, u64)>, RestoreError> {
    let bytes = hex::decode(packed).map_err(|_| RestoreError::Malformed { field })?;
    if bytes.len() % WINDOW_RECORD != 0 {
        return Err(RestoreError::Malformed { field });
    }
    Ok(bytes
        .chunks_exact(WINDOW_RECORD)
        .map(|record| {
            let (digest, n) = record.split_at(32);
            (
                Digest32(digest.try_into().expect("32-byte digest")),
                u64::from_be_bytes(n.try_into().expect("8-byte integer")),
            )
        })
        .collect())
}

/// Why a [`ReplicaSnapshot`] could not be restored. Recovery skips such an
/// object rather than panicking on one corrupt checkpoint.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A hex field does not decode, or a packed window list is not a whole
    /// number of [`WINDOW_RECORD`]-byte records.
    #[error("checkpoint field {field} is malformed")]
    Malformed {
        /// The offending snapshot field.
        field: &'static str,
    },
}

impl ReplicaSnapshot {
    /// Captures the durable image of `replica`.
    pub fn capture(replica: &Replica) -> ReplicaSnapshot {
        ReplicaSnapshot {
            members: replica.members.clone(),
            group: replica.group,
            agreed: replica.agreed,
            agreed_state: hex::encode(&replica.agreed_state),
            seen_runs: pack_window(replica.seen_runs.iter().map(|(r, s)| (&r.0, *s))),
            seen_tuples: pack_window(replica.seen_tuples.iter().map(|(s, d)| (d, *s))),
            active: replica.active.clone(),
            queued: replica.queued.clone(),
            // Serialized oldest-first so restore preserves eviction order.
            completed_replies: pack_window(
                replica
                    .completed_order
                    .iter()
                    .filter_map(|k| replica.completed_replies.get(k).map(|v| (&k.0, v.slot))),
            ),
            reply_slots: replica.reply_slots,
            detached: replica.detached,
        }
    }

    /// Rebuilds a replica around a freshly constructed application object
    /// (the object's state is re-installed from the checkpoint).
    ///
    /// `fetch_reply` resolves a re-reply storage slot back to the bytes
    /// written for it (see [`Replica::remember_reply`]). Each blob carries
    /// the 32-byte run id it was written for as a prefix; an entry whose
    /// blob is missing or names a different run — a crash landed between a
    /// slot overwrite and the core snapshot that would have retired the
    /// old entry — is dropped, which merely re-runs the eviction the
    /// interrupted write was performing.
    ///
    /// Fails, before touching `object`, if a hex field or packed list is
    /// malformed.
    pub fn restore(
        self,
        object_id: ObjectId,
        mut object: Box<dyn B2BObject>,
        mut fetch_reply: impl FnMut(u64) -> Option<Vec<u8>>,
    ) -> Result<Replica, RestoreError> {
        let agreed_state =
            hex::decode(&self.agreed_state).map_err(|_| RestoreError::Malformed {
                field: "agreed_state",
            })?;
        let seen_runs = unpack_window("seen_runs", &self.seen_runs)?;
        let seen_tuples = unpack_window("seen_tuples", &self.seen_tuples)?;
        let replies = unpack_window("completed_replies", &self.completed_replies)?;
        object.apply_state(&agreed_state);
        let mut completed_replies = HashMap::new();
        let mut completed_order = VecDeque::new();
        for (digest, slot) in replies {
            let run = RunId(digest);
            let Some(blob) = fetch_reply(slot) else {
                continue;
            };
            if blob.len() < 32 || blob[..32] != digest.0 {
                continue;
            }
            completed_replies.insert(
                run,
                StoredReply {
                    slot,
                    wire: blob[32..].to_vec(),
                },
            );
            completed_order.push_back(run);
        }
        Ok(Replica {
            object_id,
            object,
            members: self.members,
            group: self.group,
            agreed: self.agreed,
            agreed_state,
            seen_runs: seen_runs.into_iter().map(|(d, s)| (RunId(d), s)).collect(),
            seen_tuples: seen_tuples.into_iter().map(|(d, s)| (s, d)).collect(),
            active: self.active,
            queued: self.queued,
            completed_replies,
            completed_order,
            dirty_replies: Vec::new(),
            reply_slots: self.reply_slots,
            detached: self.detached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::object::SharedCell;
    use b2b_crypto::sha256;

    fn replica(members: &[&str]) -> Replica {
        let object = Box::new(SharedCell::new(0u64));
        let members: Vec<PartyId> = members.iter().map(|m| PartyId::new(*m)).collect();
        let state = serde_json::to_vec(&0u64).unwrap();
        Replica {
            object_id: ObjectId::new("obj"),
            object,
            group: GroupId::genesis(sha256(b"g"), &members),
            agreed: StateId::genesis(sha256(b"r"), &state),
            agreed_state: state,
            members,
            seen_runs: HashMap::new(),
            seen_tuples: HashSet::new(),
            active: None,
            queued: Vec::new(),
            completed_replies: HashMap::new(),
            completed_order: VecDeque::new(),
            dirty_replies: Vec::new(),
            reply_slots: 0,
            detached: false,
        }
    }

    #[test]
    fn sponsor_is_most_recently_joined() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(r.sponsor(), &PartyId::new("c"));
    }

    #[test]
    fn disconnect_sponsor_skips_subjects() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("c")]),
            Some(&PartyId::new("b"))
        );
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("b")]),
            Some(&PartyId::new("c"))
        );
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("a"), PartyId::new("b"), PartyId::new("c")]),
            None
        );
    }

    #[test]
    fn recipients_exclude_proposer() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(
            r.recipients(&PartyId::new("b")),
            vec![PartyId::new("a"), PartyId::new("c")]
        );
    }

    #[test]
    fn remember_reply_evicts_oldest_beyond_cap() {
        let mut r = replica(&["a", "b"]);
        let mk = |i: u8| {
            WireMsg::Decide(DecideMsg {
                object: ObjectId::new("obj"),
                run: RunId(sha256(&[i])),
                authenticator: [0; 32],
                responses: Vec::new(),
            })
        };
        for i in 0..5u8 {
            r.remember_reply(RunId(sha256(&[i])), mk(i), 3);
        }
        assert_eq!(r.completed_replies.len(), 3);
        assert_eq!(r.completed_order.len(), 3);
        assert!(!r.completed_replies.contains_key(&RunId(sha256(&[0u8]))));
        assert!(!r.completed_replies.contains_key(&RunId(sha256(&[1u8]))));
        assert!(r.completed_replies.contains_key(&RunId(sha256(&[4u8]))));
        // The retained replies decode back to the remembered messages,
        // and their slots stay within the cap.
        assert_eq!(r.completed_reply(&RunId(sha256(&[4u8]))), Some(mk(4)));
        assert!(r.completed_replies.values().all(|sr| sr.slot < 3));
        // Zero cap retains nothing.
        let mut empty = replica(&["a", "b"]);
        empty.remember_reply(RunId(sha256(b"z")), mk(9), 0);
        assert!(empty.completed_replies.is_empty());
    }

    #[test]
    fn prune_seen_drops_tuples_outside_window() {
        let mut r = replica(&["a"]);
        for seq in 0..10u64 {
            r.seen_tuples.insert((seq, sha256(&[seq as u8])));
        }
        r.agreed.seq = 9;
        r.prune_seen(3);
        assert_eq!(r.seen_tuples.len(), 4); // seqs 6..=9
        assert!(r.seen_tuples.iter().all(|(s, _)| *s >= 6));
    }

    #[test]
    fn snapshot_roundtrip_preserves_protocol_state() {
        let mut r = replica(&["a", "b"]);
        r.seen_tuples.insert((3, sha256(b"t")));
        r.seen_runs.insert(RunId(sha256(b"run")), 0);
        let run = RunId(sha256(b"done"));
        let reply = WireMsg::Decide(DecideMsg {
            object: ObjectId::new("obj"),
            run,
            authenticator: [0; 32],
            responses: Vec::new(),
        });
        r.remember_reply(run, reply.clone(), 4);
        let slots = reply_slots(&r);
        let snap = ReplicaSnapshot::capture(&r);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ReplicaSnapshot = serde_json::from_str(&json).unwrap();
        let restored = back
            .restore(
                ObjectId::new("obj"),
                Box::new(SharedCell::new(99u64)),
                |s| slots.get(&s).cloned(),
            )
            .expect("well-formed snapshot restores");
        assert_eq!(restored.members, r.members);
        assert_eq!(restored.group, r.group);
        assert_eq!(restored.agreed, r.agreed);
        assert_eq!(restored.agreed_state, r.agreed_state);
        assert!(restored.seen_tuples.contains(&(3, sha256(b"t"))));
        // The fresh object had state 99 but restore installs the checkpoint.
        assert_eq!(restored.object.get_state(), r.agreed_state);
        // The re-reply window survives through the per-slot store.
        assert_eq!(restored.completed_reply(&run), Some(reply));
        assert_eq!(restored.reply_slots, r.reply_slots);
    }

    /// Per-slot reply store as `Coordinator::persist` writes it: blob =
    /// run id ‖ wire bytes.
    fn reply_slots(r: &Replica) -> HashMap<u64, Vec<u8>> {
        r.completed_replies
            .iter()
            .map(|(k, sr)| {
                let mut blob = k.0 .0.to_vec();
                blob.extend_from_slice(&sr.wire);
                (sr.slot, blob)
            })
            .collect()
    }

    #[test]
    fn full_replay_window_roundtrips_through_json() {
        let config = crate::CoordinatorConfig::default();
        let (window, cap) = (config.replay_window, config.completed_replies_cap);
        let mut r = replica(&["a", "b"]);
        // Ten more than the window survives, so pruning drops some.
        for seq in 0..window + 10 {
            r.seen_runs.insert(RunId(sha256(&seq.to_be_bytes())), seq);
            r.seen_tuples
                .insert((seq, sha256(&[&seq.to_be_bytes()[..], b"t"].concat())));
        }
        r.agreed.seq = window + 9;
        r.prune_seen(window);
        assert_eq!(r.seen_runs.len() as u64, window + 1);
        assert_eq!(r.seen_tuples.len() as u64, window + 1);
        // One more reply than the cap: the oldest is evicted and its slot
        // reused, so slots and order no longer coincide.
        for i in 0..=cap as u64 {
            let run = RunId(sha256(&[&i.to_be_bytes()[..], b"done"].concat()));
            let reply = WireMsg::Decide(DecideMsg {
                object: ObjectId::new("obj"),
                run,
                authenticator: [i as u8; 32],
                responses: Vec::new(),
            });
            r.remember_reply(run, reply, cap);
        }
        assert_eq!(r.completed_order.len(), cap);
        let slots = reply_slots(&r);

        let json = serde_json::to_string(&ReplicaSnapshot::capture(&r)).unwrap();
        let back: ReplicaSnapshot = serde_json::from_str(&json).unwrap();
        let restored = back
            .restore(ObjectId::new("obj"), Box::new(SharedCell::new(0u64)), |s| {
                slots.get(&s).cloned()
            })
            .expect("well-formed snapshot restores");
        assert_eq!(restored.seen_runs, r.seen_runs);
        assert_eq!(restored.seen_tuples, r.seen_tuples);
        assert_eq!(restored.completed_order, r.completed_order);
        assert_eq!(restored.completed_replies, r.completed_replies);
        for run in &r.completed_order {
            assert_eq!(restored.completed_reply(run), r.completed_reply(run));
            assert!(restored.completed_reply(run).is_some());
        }
        assert_eq!(restored.reply_slots, r.reply_slots);
    }

    #[test]
    fn malformed_checkpoint_fields_fail_restore() {
        let mut r = replica(&["a", "b"]);
        r.seen_runs.insert(RunId(sha256(b"run")), 0);
        r.seen_tuples.insert((1, sha256(b"t")));
        let good = ReplicaSnapshot::capture(&r);
        let record = good.seen_runs.clone();
        assert_eq!(record.len(), 2 * WINDOW_RECORD);
        type Corrupt = fn(&mut ReplicaSnapshot, String);
        let fields: [(&str, Corrupt); 4] = [
            ("agreed_state", |s, v| s.agreed_state = v),
            ("seen_runs", |s, v| s.seen_runs = v),
            ("seen_tuples", |s, v| s.seen_tuples = v),
            ("completed_replies", |s, v| s.completed_replies = v),
        ];
        for (field, corrupt) in fields {
            let mut values = vec![
                format!("{record}0"),          // odd number of hex digits
                format!("{}zz", &record[2..]), // not hex
            ];
            if field != "agreed_state" {
                // Whole bytes, but not whole records.
                values.push(record[..2 * (WINDOW_RECORD - 1)].to_string());
                values.push(format!("{record}00"));
            }
            for value in values {
                let mut snap = good.clone();
                corrupt(&mut snap, value.clone());
                let err = snap
                    .restore(
                        ObjectId::new("obj"),
                        Box::new(SharedCell::new(0u64)),
                        |_slot| None,
                    )
                    .expect_err(&format!("{field} = {value:?} must not restore"));
                assert_eq!(err, RestoreError::Malformed { field });
            }
        }
        // An empty list is well formed.
        let mut empty = good;
        empty.seen_runs.clear();
        assert!(empty
            .restore(
                ObjectId::new("obj"),
                Box::new(SharedCell::new(0u64)),
                |_| None
            )
            .is_ok());
    }

    #[test]
    fn restore_drops_replies_whose_slot_was_reused() {
        let mut r = replica(&["a", "b"]);
        let run = RunId(sha256(b"stale"));
        r.remember_reply(
            run,
            WireMsg::Decide(DecideMsg {
                object: ObjectId::new("obj"),
                run,
                authenticator: [0; 32],
                responses: Vec::new(),
            }),
            4,
        );
        let snap = ReplicaSnapshot::capture(&r);
        // The slot now holds a blob written for a *different* run: the
        // crash landed between the slot overwrite and the core snapshot.
        let mut blob = sha256(b"other-run").0.to_vec();
        blob.extend_from_slice(b"{}");
        let restored = snap
            .restore(
                ObjectId::new("obj"),
                Box::new(SharedCell::new(0u64)),
                |_slot| Some(blob.clone()),
            )
            .expect("well-formed snapshot restores");
        assert!(restored.completed_replies.is_empty());
        assert!(restored.completed_order.is_empty());
    }

    #[test]
    fn shared_cell_validator_is_irrelevant_here_but_object_installs() {
        // Guard: restore must call apply_state even for accept-all cells.
        let snap = ReplicaSnapshot::capture(&replica(&["a"]));
        let restored = snap
            .restore(
                ObjectId::new("obj"),
                Box::new(SharedCell::new(5u64).with_validator(|_w, _o, _n| Decision::accept())),
                |_slot| None,
            )
            .expect("well-formed snapshot restores");
        assert_eq!(
            restored.object.get_state(),
            serde_json::to_vec(&0u64).unwrap()
        );
    }
}
