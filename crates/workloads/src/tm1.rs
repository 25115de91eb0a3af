//! NDBB / TM1: Nokia's Network Database Benchmark.
//!
//! Four tables modeling a Home Location Register and seven very short
//! transactions (1-4 rows each). The benchmark's signature property — and
//! why the paper leans on it — is that transactions are so short that lock
//! manager overhead dominates, and that many transactions *fail on invalid
//! inputs by design* (the paper's quoted rates: getDest 76.1 %, getAccess
//! 37.5 %, updateSub 37.5 %, ins/delCF 68.75 %).
//!
//! The failure rates fall out of the data distribution rather than coin
//! flips:
//!
//! * each subscriber has 1-4 `access_info` rows (uniform), so a uniformly
//!   random `ai_type` hits with E\[K\]/4 = 62.5 % → 37.5 % fail;
//! * same for `special_facility` → `updateSub` fails 37.5 %;
//! * each (subscriber, sf_type) slot has a `call_forwarding` row per
//!   `start_time` with p = 0.5, so insert (slot must be free:
//!   0.625 x 0.5 = 31.25 % success) and delete (row must exist, same odds)
//!   both fail 68.75 %;
//! * `getDest` additionally requires `is_active` (85 %) and an end-time
//!   qualification (90 %): 0.625 x 0.85 x 0.5 x 0.9 = 23.9 % success →
//!   76.1 % fail.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli_engine::{Database, Session, TxnError};

use crate::encode::*;
use crate::mix::{MixEntry, MixedWorkload, Outcome};

/// Subscriber record length.
const SUBSCRIBER_LEN: usize = 76;
/// Access-info record length.
const ACCESS_INFO_LEN: usize = 32;
/// Special-facility record length.
const SPECIAL_FACILITY_LEN: usize = 20;
/// Call-forwarding record length.
const CALL_FORWARDING_LEN: usize = 26;

/// Field offsets in the subscriber record.
mod sub_field {
    pub const S_ID: usize = 0;
    pub const SUB_NBR: usize = 8;
    pub const BITS: usize = 16;
    pub const HEX: usize = 20;
    pub const BYTE2: usize = 24;
    pub const MSC_LOCATION: usize = 28;
    pub const VLR_LOCATION: usize = 36;
    pub const FILLER: usize = 44;
}

/// The seven TM1 transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tm1Txn {
    /// GET_SUBSCRIBER_DATA (read-only, never fails).
    GetSubscriberData,
    /// GET_NEW_DESTINATION (read-only, 76.1 % fail).
    GetNewDestination,
    /// GET_ACCESS_DATA (read-only, 37.5 % fail).
    GetAccessData,
    /// UPDATE_SUBSCRIBER_DATA (update, 37.5 % fail).
    UpdateSubscriberData,
    /// UPDATE_LOCATION (update, never fails).
    UpdateLocation,
    /// INSERT_CALL_FORWARDING (update, 68.75 % fail).
    InsertCallForwarding,
    /// DELETE_CALL_FORWARDING (update, 68.75 % fail).
    DeleteCallForwarding,
}

struct Tables {
    subscriber: sli_engine::TableHandle,
    access_info: sli_engine::TableHandle,
    special_facility: sli_engine::TableHandle,
    call_forwarding: sli_engine::TableHandle,
}

/// A loaded TM1 database.
pub struct Tm1 {
    /// Number of subscribers (the scale factor; the paper uses 100,000).
    pub subscribers: u64,
    t: Tables,
}

fn ai_key(s_id: u64, ai_type: u8) -> u64 {
    s_id * 8 + ai_type as u64
}

fn sf_key(s_id: u64, sf_type: u8) -> u64 {
    s_id * 8 + sf_type as u64
}

fn cf_key(s_id: u64, sf_type: u8, start_slot: u8) -> u64 {
    sf_key(s_id, sf_type) * 4 + start_slot as u64
}

/// Fold a TM1 transaction result: TM1 "failures" are *committed*
/// transactions with an unsuccessful (empty) result — a no-match SELECT or
/// a zero-row UPDATE commits normally in the reference implementation. Only
/// key violations roll back.
fn complete(r: Result<bool, TxnError>) -> Outcome {
    match r {
        Ok(true) => Outcome::Commit,
        Ok(false) => Outcome::UserFail,
        Err(TxnError::UserAbort(_)) | Err(TxnError::NotFound) => Outcome::UserFail,
        Err(TxnError::Lock(_)) | Err(TxnError::Validation(_)) | Err(TxnError::Durability(_)) => {
            Outcome::SysAbort
        }
    }
}

impl Tm1 {
    /// Create the four tables and load `subscribers` subscribers with the
    /// distributions described in the module docs.
    pub fn load(db: &Arc<Database>, subscribers: u64, seed: u64) -> Arc<Tm1> {
        let t = Tables {
            subscriber: db.create_table("tm1_subscriber").expect("fresh db"),
            access_info: db.create_table("tm1_access_info").expect("fresh db"),
            special_facility: db.create_table("tm1_special_facility").expect("fresh db"),
            call_forwarding: db.create_table("tm1_call_forwarding").expect("fresh db"),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for s_id in 1..=subscribers {
            let mut sub = vec![0u8; SUBSCRIBER_LEN];
            put_u64(&mut sub, sub_field::S_ID, s_id);
            put_u64(&mut sub, sub_field::SUB_NBR, s_id);
            put_u32(&mut sub, sub_field::BITS, rng.gen());
            put_u32(&mut sub, sub_field::HEX, rng.gen());
            put_u32(&mut sub, sub_field::BYTE2, rng.gen());
            put_u64(&mut sub, sub_field::MSC_LOCATION, rng.gen());
            put_u64(&mut sub, sub_field::VLR_LOCATION, rng.gen());
            put_filler(
                &mut sub,
                sub_field::FILLER,
                SUBSCRIBER_LEN - sub_field::FILLER,
                s_id,
            );
            db.bulk_insert(t.subscriber, s_id, None, &sub);

            // 1-4 access_info rows on distinct ai_types.
            let k_ai = rng.gen_range(1..=4usize);
            for &ai_type in pick_types(&mut rng, k_ai).iter() {
                let mut ai = vec![0u8; ACCESS_INFO_LEN];
                put_u64(&mut ai, 0, s_id);
                put_u8(&mut ai, 8, ai_type);
                put_u8(&mut ai, 9, rng.gen());
                put_u8(&mut ai, 10, rng.gen());
                put_filler(&mut ai, 11, ACCESS_INFO_LEN - 11, s_id ^ ai_type as u64);
                db.bulk_insert(t.access_info, ai_key(s_id, ai_type), None, &ai);
            }

            // 1-4 special_facility rows on distinct sf_types.
            let k_sf = rng.gen_range(1..=4usize);
            for &sf_type in pick_types(&mut rng, k_sf).iter() {
                let mut sf = vec![0u8; SPECIAL_FACILITY_LEN];
                put_u64(&mut sf, 0, s_id);
                put_u8(&mut sf, 8, sf_type);
                put_u8(&mut sf, 9, rng.gen_bool(0.85) as u8); // is_active
                put_u8(&mut sf, 10, rng.gen());
                put_u8(&mut sf, 11, rng.gen());
                put_filler(
                    &mut sf,
                    12,
                    SPECIAL_FACILITY_LEN - 12,
                    s_id ^ (sf_type as u64) << 8,
                );
                db.bulk_insert(t.special_facility, sf_key(s_id, sf_type), None, &sf);

                // Each start slot {0,8,16} present with p = 0.5;
                // end_time = start + 8*k, k in 1..=3.
                for start_slot in 0..3u8 {
                    if rng.gen_bool(0.5) {
                        let start_time = start_slot * 8;
                        let end_time = start_time + 8 * rng.gen_range(1..=3u8);
                        let mut cf = vec![0u8; CALL_FORWARDING_LEN];
                        put_u64(&mut cf, 0, s_id);
                        put_u8(&mut cf, 8, sf_type);
                        put_u8(&mut cf, 9, start_time);
                        put_u8(&mut cf, 10, end_time);
                        put_filler(&mut cf, 11, CALL_FORWARDING_LEN - 11, s_id);
                        db.bulk_insert(
                            t.call_forwarding,
                            cf_key(s_id, sf_type, start_slot),
                            None,
                            &cf,
                        );
                    }
                }
            }
        }
        Arc::new(Tm1 { subscribers, t })
    }

    fn rand_sid(&self, rng: &mut SmallRng) -> u64 {
        rng.gen_range(1..=self.subscribers)
    }

    /// GET_SUBSCRIBER_DATA: retrieve subscriber and location info.
    pub fn get_subscriber_data(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        Outcome::from_result(s.run(|txn| {
            let row = txn.read_by_key(self.t.subscriber, s_id)?;
            // Touch the fields the real transaction returns.
            let _bits = get_u32(&row, sub_field::BITS);
            let _msc = get_u64(&row, sub_field::MSC_LOCATION);
            let _vlr = get_u64(&row, sub_field::VLR_LOCATION);
            Ok(())
        }))
    }

    /// GET_NEW_DESTINATION: current call-forwarding destination, if any.
    pub fn get_new_destination(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let sf_type = rng.gen_range(1..=4u8);
        let start_slot = rng.gen_range(0..3u8);
        // Qualification horizon: end_time must exceed start_time + 8*j with
        // j = 0 (p 0.7) or j = 1 (p 0.3); given k uniform in {1,2,3} this
        // qualifies 0.7 + 0.3 * 2/3 = 0.9 of existing rows.
        let j = if rng.gen_bool(0.7) { 0u8 } else { 1u8 };
        complete(s.run(|txn| {
            let sf = match txn.read_by_key(self.t.special_facility, sf_key(s_id, sf_type)) {
                Ok(row) => row,
                Err(TxnError::NotFound) => return Ok(false),
                Err(e) => return Err(e),
            };
            if get_u8(&sf, 9) == 0 {
                return Ok(false); // inactive: empty result, still commits
            }
            let cf =
                match txn.read_by_key(self.t.call_forwarding, cf_key(s_id, sf_type, start_slot)) {
                    Ok(row) => row,
                    Err(TxnError::NotFound) => return Ok(false),
                    Err(e) => return Err(e),
                };
            let start_time = get_u8(&cf, 9);
            let end_time = get_u8(&cf, 10);
            Ok(end_time > start_time + 8 * j)
        }))
    }

    /// GET_ACCESS_DATA: access validation data.
    pub fn get_access_data(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let ai_type = rng.gen_range(1..=4u8);
        complete(s.run(
            |txn| match txn.read_by_key(self.t.access_info, ai_key(s_id, ai_type)) {
                Ok(row) => {
                    let _d1 = get_u8(&row, 9);
                    Ok(true)
                }
                Err(TxnError::NotFound) => Ok(false),
                Err(e) => Err(e),
            },
        ))
    }

    /// UPDATE_SUBSCRIBER_DATA: update profile bits + facility data.
    pub fn update_subscriber_data(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let sf_type = rng.gen_range(1..=4u8);
        let new_bits: u32 = rng.gen();
        let new_data_a: u8 = rng.gen();
        complete(s.run(|txn| {
            txn.update_by_key(self.t.subscriber, s_id, |old| {
                let mut row = old.to_vec();
                put_u32(&mut row, sub_field::BITS, new_bits);
                row
            })?;
            // "Unsuccessful" when the facility row does not exist (the
            // 37.5 % case): the UPDATE matches zero rows, but the
            // transaction — including the subscriber update — commits.
            match txn.update_by_key(self.t.special_facility, sf_key(s_id, sf_type), |old| {
                let mut row = old.to_vec();
                put_u8(&mut row, 11, new_data_a);
                row
            }) {
                Ok(()) => Ok(true),
                Err(TxnError::NotFound) => Ok(false),
                Err(e) => Err(e),
            }
        }))
    }

    /// UPDATE_LOCATION: move a subscriber to a new VLR.
    pub fn update_location(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let new_vlr: u64 = rng.gen();
        Outcome::from_result(s.run(|txn| {
            txn.update_by_key(self.t.subscriber, s_id, |old| {
                let mut row = old.to_vec();
                put_u64(&mut row, sub_field::VLR_LOCATION, new_vlr);
                row
            })?;
            Ok(())
        }))
    }

    /// INSERT_CALL_FORWARDING: add a forwarding destination.
    pub fn insert_call_forwarding(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let sf_type = rng.gen_range(1..=4u8);
        let start_slot = rng.gen_range(0..3u8);
        let end_k = rng.gen_range(1..=3u8);
        complete(s.run(|txn| {
            // The real transaction first resolves sub_nbr -> s_id.
            let _sub = txn.read_by_key(self.t.subscriber, s_id)?;
            match txn.read_by_key(self.t.special_facility, sf_key(s_id, sf_type)) {
                Ok(_) => {}
                Err(TxnError::NotFound) => return Ok(false),
                Err(e) => return Err(e),
            }
            let key = cf_key(s_id, sf_type, start_slot);
            if txn.lookup(self.t.call_forwarding, key).is_some() {
                // Primary-key violation: this one genuinely rolls back.
                return Err(txn.user_abort("forwarding row already exists"));
            }
            let start_time = start_slot * 8;
            let mut cf = vec![0u8; CALL_FORWARDING_LEN];
            put_u64(&mut cf, 0, s_id);
            put_u8(&mut cf, 8, sf_type);
            put_u8(&mut cf, 9, start_time);
            put_u8(&mut cf, 10, start_time + 8 * end_k);
            put_filler(&mut cf, 11, CALL_FORWARDING_LEN - 11, s_id);
            txn.insert(self.t.call_forwarding, key, &cf)?;
            Ok(true)
        }))
    }

    /// DELETE_CALL_FORWARDING: remove a forwarding destination.
    pub fn delete_call_forwarding(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let s_id = self.rand_sid(rng);
        let sf_type = rng.gen_range(1..=4u8);
        let start_slot = rng.gen_range(0..3u8);
        complete(s.run(|txn| {
            let _sub = txn.read_by_key(self.t.subscriber, s_id)?;
            match txn.delete_by_key(
                self.t.call_forwarding,
                cf_key(s_id, sf_type, start_slot),
                None,
            ) {
                Ok(()) => Ok(true),
                Err(TxnError::NotFound) => Ok(false), // zero rows: commits
                Err(e) => Err(e),
            }
        }))
    }

    /// Run one named transaction.
    pub fn run(&self, kind: Tm1Txn, s: &Session, rng: &mut SmallRng) -> Outcome {
        match kind {
            Tm1Txn::GetSubscriberData => self.get_subscriber_data(s, rng),
            Tm1Txn::GetNewDestination => self.get_new_destination(s, rng),
            Tm1Txn::GetAccessData => self.get_access_data(s, rng),
            Tm1Txn::UpdateSubscriberData => self.update_subscriber_data(s, rng),
            Tm1Txn::UpdateLocation => self.update_location(s, rng),
            Tm1Txn::InsertCallForwarding => self.insert_call_forwarding(s, rng),
            Tm1Txn::DeleteCallForwarding => self.delete_call_forwarding(s, rng),
        }
    }

    fn entry(self: &Arc<Self>, kind: Tm1Txn, name: &'static str, weight: f64) -> MixEntry {
        let me = Arc::clone(self);
        MixEntry {
            name,
            weight,
            run: Box::new(move |s, rng| me.run(kind, s, rng)),
        }
    }

    /// The full NDBB mix at the paper's frequencies.
    pub fn ndbb_mix(self: &Arc<Self>) -> MixedWorkload {
        MixedWorkload::new(
            "NDBB Mix",
            vec![
                self.entry(Tm1Txn::GetSubscriberData, "getSub", 35.0),
                self.entry(Tm1Txn::GetNewDestination, "getDest", 10.0),
                self.entry(Tm1Txn::GetAccessData, "getAccess", 35.0),
                self.entry(Tm1Txn::UpdateSubscriberData, "updateSub", 2.0),
                self.entry(Tm1Txn::UpdateLocation, "updateLoc", 14.0),
                self.entry(Tm1Txn::InsertCallForwarding, "insCF", 2.0),
                self.entry(Tm1Txn::DeleteCallForwarding, "delCF", 2.0),
            ],
        )
    }

    /// The paper's "Forward mix": getDest with the two call-forwarding
    /// writers (relative weights 71.4 : 28.5 : 28.5 as printed).
    pub fn forward_mix(self: &Arc<Self>) -> MixedWorkload {
        MixedWorkload::new(
            "Forward mix",
            vec![
                self.entry(Tm1Txn::GetNewDestination, "getDest", 71.4),
                self.entry(Tm1Txn::InsertCallForwarding, "insCF", 28.5),
                self.entry(Tm1Txn::DeleteCallForwarding, "delCF", 28.5),
            ],
        )
    }

    /// A single-transaction workload (the per-transaction columns of
    /// Figures 6 and 8-11).
    pub fn single(self: &Arc<Self>, kind: Tm1Txn) -> MixedWorkload {
        let (name, label) = match kind {
            Tm1Txn::GetSubscriberData => ("getSub", "getSub"),
            Tm1Txn::GetNewDestination => ("getDest", "getDest"),
            Tm1Txn::GetAccessData => ("getAccess", "getAccess"),
            Tm1Txn::UpdateSubscriberData => ("updateSub", "updateSub"),
            Tm1Txn::UpdateLocation => ("updateLoc", "updateLoc"),
            Tm1Txn::InsertCallForwarding => ("insCF", "insCF"),
            Tm1Txn::DeleteCallForwarding => ("delCF", "delCF"),
        };
        MixedWorkload::new(label, vec![self.entry(kind, name, 1.0)])
    }

    /// Table handle of the subscriber table (tests/diagnostics).
    pub fn subscriber_table(&self) -> sli_engine::TableHandle {
        self.t.subscriber
    }
}

fn pick_types(rng: &mut SmallRng, k: usize) -> Vec<u8> {
    let mut types = [1u8, 2, 3, 4];
    for i in (1..4).rev() {
        let j = rng.gen_range(0..=i);
        types.swap(i, j);
    }
    types[..k].to_vec()
}

/// Convenience: outcome of a raw engine call in TM1 semantics.
pub fn outcome_of(r: Result<(), TxnError>) -> Outcome {
    Outcome::from_result(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_engine::DatabaseConfig;

    fn small_tm1() -> (Arc<Database>, Arc<Tm1>) {
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 500, 7);
        (db, tm1)
    }

    #[test]
    fn load_populates_expected_row_counts() {
        let (db, tm1) = small_tm1();
        let n = tm1.subscribers;
        assert_eq!(db.record_count(tm1.t.subscriber), n);
        // E[access_info rows] = 2.5 per subscriber.
        let ai = db.record_count(tm1.t.access_info) as f64 / n as f64;
        assert!((ai - 2.5).abs() < 0.3, "ai rows/sub = {ai}");
        let sf = db.record_count(tm1.t.special_facility) as f64 / n as f64;
        assert!((sf - 2.5).abs() < 0.3, "sf rows/sub = {sf}");
        // E[cf rows] = 2.5 sf * 1.5 = 3.75 per subscriber.
        let cf = db.record_count(tm1.t.call_forwarding) as f64 / n as f64;
        assert!((cf - 3.75).abs() < 0.5, "cf rows/sub = {cf}");
    }

    fn measure_fail_rate(tm1: &Arc<Tm1>, db: &Arc<Database>, kind: Tm1Txn, n: usize) -> f64 {
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut fails = 0;
        for _ in 0..n {
            match tm1.run(kind, &s, &mut rng) {
                Outcome::UserFail => fails += 1,
                Outcome::Commit => {}
                Outcome::SysAbort => panic!("unexpected system abort"),
            }
        }
        fails as f64 / n as f64
    }

    #[test]
    fn failure_rates_match_the_paper() {
        let (db, tm1) = small_tm1();
        let n = 4000;
        assert_eq!(
            measure_fail_rate(&tm1, &db, Tm1Txn::GetSubscriberData, n),
            0.0
        );
        assert_eq!(measure_fail_rate(&tm1, &db, Tm1Txn::UpdateLocation, n), 0.0);
        let get_access = measure_fail_rate(&tm1, &db, Tm1Txn::GetAccessData, n);
        assert!(
            (get_access - 0.375).abs() < 0.05,
            "getAccess fail {get_access}"
        );
        let update_sub = measure_fail_rate(&tm1, &db, Tm1Txn::UpdateSubscriberData, n);
        assert!(
            (update_sub - 0.375).abs() < 0.05,
            "updateSub fail {update_sub}"
        );
        let get_dest = measure_fail_rate(&tm1, &db, Tm1Txn::GetNewDestination, n);
        assert!((get_dest - 0.761).abs() < 0.05, "getDest fail {get_dest}");
    }

    #[test]
    fn call_forwarding_churn_stays_balanced() {
        let (db, tm1) = small_tm1();
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(5);
        let before = db.record_count(tm1.t.call_forwarding) as i64;
        let mut ins = 0i64;
        let mut del = 0i64;
        for _ in 0..2000 {
            if tm1.insert_call_forwarding(&s, &mut rng) == Outcome::Commit {
                ins += 1;
            }
            if tm1.delete_call_forwarding(&s, &mut rng) == Outcome::Commit {
                del += 1;
            }
        }
        let after = db.record_count(tm1.t.call_forwarding) as i64;
        assert_eq!(after - before, ins - del);
        // Both succeed roughly 31.25 % of the time.
        assert!((ins as f64 / 2000.0 - 0.3125).abs() < 0.06);
        assert!((del as f64 / 2000.0 - 0.3125).abs() < 0.06);
    }

    #[test]
    fn ndbb_mix_runs_all_transaction_types() {
        let (db, tm1) = small_tm1();
        let mix = tm1.ndbb_mix();
        assert_eq!(mix.len(), 7);
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut commits = 0;
        for _ in 0..500 {
            if mix.run_one(&s, &mut rng).1 == Outcome::Commit {
                commits += 1;
            }
        }
        assert!(commits > 200, "mix should mostly commit: {commits}");
    }

    #[test]
    fn unsuccessful_update_subscriber_still_commits_first_statement() {
        // TM1 semantics: the zero-row special-facility UPDATE does not roll
        // the transaction back — the subscriber bits change persists.
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 50, 11);
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut saw_failed_change = false;
        for _ in 0..200 {
            let before: Vec<_> = (1..=50u64)
                .map(|sid| get_u32(&db.peek(tm1.t.subscriber, sid).unwrap(), sub_field::BITS))
                .collect();
            let out = tm1.update_subscriber_data(&s, &mut rng);
            let after: Vec<_> = (1..=50u64)
                .map(|sid| get_u32(&db.peek(tm1.t.subscriber, sid).unwrap(), sub_field::BITS))
                .collect();
            if out == Outcome::UserFail && before != after {
                saw_failed_change = true;
            }
        }
        assert!(
            saw_failed_change,
            "some unsuccessful updateSub must still have committed its first statement"
        );
    }

    #[test]
    fn failed_reads_commit_rather_than_abort() {
        // "Failures" must not roll back: the lock-manager commit counter
        // advances for UserFail outcomes of the read transactions.
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 100, 5);
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut fails = 0;
        for _ in 0..300 {
            if tm1.get_access_data(&s, &mut rng) == Outcome::UserFail {
                fails += 1;
            }
        }
        assert!(fails > 50, "expect ~37.5% failures, got {fails}/300");
        let stats = db.lock_stats();
        assert_eq!(stats.commits, 300, "failed reads still commit");
        assert_eq!(stats.aborts, 0);
    }
}
