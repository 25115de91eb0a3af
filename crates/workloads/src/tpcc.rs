//! TPC-C: order-entry OLTP.
//!
//! All nine tables and the five transactions, with the spec's row-access
//! patterns preserved (New Order touches 5-15 items; Stock Level examines
//! ~200 order lines; Delivery drains one order per district across all ten
//! districts). Simplifications versus the full spec are documented in
//! DESIGN.md §5: sizes are scaled by configuration, all items are local to
//! the home warehouse, and customer lookup is by id (no last-name index) —
//! none of which changes the per-transaction *lock footprint*, which is
//! what the paper's experiments measure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli_engine::{Database, Session, TableHandle, TxnError};

use crate::encode::*;
use crate::mix::{MixEntry, MixedWorkload, Outcome};

/// Districts per warehouse (spec).
pub const DISTRICTS: u64 = 10;

/// Scale configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpcCScale {
    /// Number of warehouses (the paper loads 300).
    pub warehouses: u64,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u64,
    /// Item catalog size (spec: 100,000).
    pub items: u64,
    /// Initially loaded orders per district (spec: 3000, newest 900
    /// undelivered).
    pub initial_orders_per_district: u64,
}

impl Default for TpcCScale {
    fn default() -> Self {
        TpcCScale {
            warehouses: 24,
            customers_per_district: 300,
            items: 5_000,
            initial_orders_per_district: 150,
        }
    }
}

impl TpcCScale {
    /// A tiny scale for unit tests.
    pub fn tiny() -> Self {
        TpcCScale {
            warehouses: 2,
            customers_per_district: 30,
            items: 200,
            initial_orders_per_district: 20,
        }
    }
}

// ---- key packing ---------------------------------------------------------

fn dist_key(w: u64, d: u64) -> u64 {
    w * 16 + d
}

fn cust_key(w: u64, d: u64, c: u64) -> u64 {
    dist_key(w, d) * 4096 + c
}

fn stock_key(w: u64, i: u64) -> u64 {
    w * 0x0002_0000 + i
}

fn order_key(w: u64, d: u64, o: u64) -> u64 {
    (dist_key(w, d) << 32) | o
}

/// Ordered-index key for orders: sorts by customer, then order number, so
/// "newest order of customer c" is a reverse range probe.
fn order_okey(w: u64, d: u64, c: u64, o: u64) -> u64 {
    (cust_key(w, d, c) << 24) | o
}

/// Ordered-index key for new_order rows: sorts by district then order
/// number, so "oldest undelivered order in district" is a forward probe.
fn new_order_okey(w: u64, d: u64, o: u64) -> u64 {
    (dist_key(w, d) << 32) | o
}

fn order_line_key(w: u64, d: u64, o: u64, line: u64) -> u64 {
    (dist_key(w, d) << 36) | (o << 4) | line
}

// ---- record layouts -------------------------------------------------------

const WAREHOUSE_LEN: usize = 96;
const DISTRICT_LEN: usize = 96;
const CUSTOMER_LEN: usize = 200;
const ITEM_LEN: usize = 80;
const STOCK_LEN: usize = 120;
const ORDER_LEN: usize = 64;
const NEW_ORDER_LEN: usize = 16;
const ORDER_LINE_LEN: usize = 48;
const HISTORY_LEN: usize = 46;

mod district_field {
    pub const YTD: usize = 8;
    pub const NEXT_O_ID: usize = 16;
}

mod customer_field {
    pub const BALANCE: usize = 8;
    pub const YTD_PAYMENT: usize = 16;
    pub const PAYMENT_CNT: usize = 24;
    pub const DELIVERY_CNT: usize = 32;
}

mod stock_field {
    pub const QUANTITY: usize = 8;
    pub const YTD: usize = 16;
    pub const ORDER_CNT: usize = 24;
}

mod order_field {
    pub const C_ID: usize = 8;
    pub const CARRIER: usize = 16;
    pub const OL_CNT: usize = 24;
}

mod order_line_field {
    pub const I_ID: usize = 8;
    pub const QTY: usize = 16;
    pub const AMOUNT: usize = 24;
    pub const DELIVERY_D: usize = 32;
}

struct Tables {
    warehouse: TableHandle,
    district: TableHandle,
    customer: TableHandle,
    item: TableHandle,
    stock: TableHandle,
    order: TableHandle,
    new_order: TableHandle,
    order_line: TableHandle,
    history: TableHandle,
}

/// A loaded TPC-C database.
pub struct TpcC {
    /// The scale it was loaded at.
    pub scale: TpcCScale,
    t: Tables,
    history_seq: AtomicU64,
}

/// The five TPC-C transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpcCTxn {
    /// New Order (update, medium weight, 1 % user failures).
    NewOrder,
    /// Payment (update, short).
    Payment,
    /// Order Status (read-only).
    OrderStatus,
    /// Delivery (update, largest, most contentious).
    Delivery,
    /// Stock Level (read-only, ~200 order lines).
    StockLevel,
}

impl TpcC {
    /// Create all nine tables and load them at `scale`.
    pub fn load(db: &Arc<Database>, scale: TpcCScale, seed: u64) -> Arc<TpcC> {
        let t = Tables {
            warehouse: db.create_table("tpcc_warehouse").expect("fresh db"),
            district: db.create_table("tpcc_district").expect("fresh db"),
            customer: db.create_table("tpcc_customer").expect("fresh db"),
            item: db.create_table("tpcc_item").expect("fresh db"),
            stock: db.create_table("tpcc_stock").expect("fresh db"),
            order: db.create_table("tpcc_order").expect("fresh db"),
            new_order: db.create_table("tpcc_new_order").expect("fresh db"),
            order_line: db.create_table("tpcc_order_line").expect("fresh db"),
            history: db.create_table("tpcc_history").expect("fresh db"),
        };
        let mut rng = SmallRng::seed_from_u64(seed);

        for i in 1..=scale.items {
            let mut row = vec![0u8; ITEM_LEN];
            put_u64(&mut row, 0, i);
            put_i64(&mut row, 8, rng.gen_range(100..10_000)); // price cents
            put_filler(&mut row, 16, ITEM_LEN - 16, i);
            db.bulk_insert(t.item, i, None, &row);
        }

        for w in 1..=scale.warehouses {
            let mut row = vec![0u8; WAREHOUSE_LEN];
            put_u64(&mut row, 0, w);
            put_i64(&mut row, 8, 0); // ytd
            put_filler(&mut row, 16, WAREHOUSE_LEN - 16, w);
            db.bulk_insert(t.warehouse, w, None, &row);

            for i in 1..=scale.items {
                let mut s = vec![0u8; STOCK_LEN];
                put_u64(&mut s, 0, i);
                put_i64(&mut s, stock_field::QUANTITY, rng.gen_range(10..100));
                put_filler(&mut s, 32, STOCK_LEN - 32, w ^ i);
                db.bulk_insert(t.stock, stock_key(w, i), None, &s);
            }

            for d in 1..=DISTRICTS {
                let next_o = scale.initial_orders_per_district + 1;
                let mut row = vec![0u8; DISTRICT_LEN];
                put_u64(&mut row, 0, dist_key(w, d));
                put_i64(&mut row, district_field::YTD, 0);
                put_u64(&mut row, district_field::NEXT_O_ID, next_o);
                put_filler(&mut row, 24, DISTRICT_LEN - 24, w * 16 + d);
                db.bulk_insert(t.district, dist_key(w, d), None, &row);

                for c in 1..=scale.customers_per_district {
                    let mut row = vec![0u8; CUSTOMER_LEN];
                    put_u64(&mut row, 0, cust_key(w, d, c));
                    put_i64(&mut row, customer_field::BALANCE, -1000);
                    put_filler(&mut row, 40, CUSTOMER_LEN - 40, cust_key(w, d, c));
                    db.bulk_insert(t.customer, cust_key(w, d, c), None, &row);
                }

                // Initial orders: the newest 30 % are undelivered.
                let delivered_upto = (scale.initial_orders_per_district as f64 * 0.7) as u64;
                for o in 1..=scale.initial_orders_per_district {
                    let c = rng.gen_range(1..=scale.customers_per_district);
                    let ol_cnt = rng.gen_range(5..=15u64);
                    let mut row = vec![0u8; ORDER_LEN];
                    put_u64(&mut row, 0, order_key(w, d, o));
                    put_u64(&mut row, order_field::C_ID, c);
                    put_u64(
                        &mut row,
                        order_field::CARRIER,
                        if o <= delivered_upto {
                            rng.gen_range(1..=10)
                        } else {
                            0
                        },
                    );
                    put_u64(&mut row, order_field::OL_CNT, ol_cnt);
                    db.bulk_insert(
                        t.order,
                        order_key(w, d, o),
                        Some(order_okey(w, d, c, o)),
                        &row,
                    );
                    if o > delivered_upto {
                        let mut no = vec![0u8; NEW_ORDER_LEN];
                        put_u64(&mut no, 0, order_key(w, d, o));
                        db.bulk_insert(
                            t.new_order,
                            order_key(w, d, o),
                            Some(new_order_okey(w, d, o)),
                            &no,
                        );
                    }
                    for line in 0..ol_cnt {
                        let i = rng.gen_range(1..=scale.items);
                        let mut ol = vec![0u8; ORDER_LINE_LEN];
                        put_u64(&mut ol, 0, order_key(w, d, o));
                        put_u64(&mut ol, order_line_field::I_ID, i);
                        put_i64(&mut ol, order_line_field::QTY, 5);
                        put_i64(&mut ol, order_line_field::AMOUNT, rng.gen_range(1..10_000));
                        put_u64(
                            &mut ol,
                            order_line_field::DELIVERY_D,
                            (o <= delivered_upto) as u64,
                        );
                        let k = order_line_key(w, d, o, line);
                        db.bulk_insert(t.order_line, k, Some(k), &ol);
                    }
                }
            }
        }
        Arc::new(TpcC {
            scale,
            t,
            history_seq: AtomicU64::new(0),
        })
    }

    fn rand_wd(&self, rng: &mut SmallRng) -> (u64, u64) {
        (
            rng.gen_range(1..=self.scale.warehouses),
            rng.gen_range(1..=DISTRICTS),
        )
    }

    /// New Order: insert a 5-15 line sales order. 1 % of runs reference an
    /// invalid item and roll back (the spec's mandated failure).
    pub fn new_order(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let (w, d) = self.rand_wd(rng);
        let c = rng.gen_range(1..=self.scale.customers_per_district);
        let ol_cnt = rng.gen_range(5..=15u64);
        // Pre-generate the item list; with 1 % probability the last item id
        // is invalid, which the transaction only discovers after having
        // done most of its work (per spec).
        let mut items: Vec<u64> = (0..ol_cnt)
            .map(|_| rng.gen_range(1..=self.scale.items))
            .collect();
        let poisoned = rng.gen_bool(0.01);
        if poisoned {
            *items.last_mut().expect("ol_cnt >= 5") = u64::MAX;
        }
        let qtys: Vec<i64> = (0..ol_cnt).map(|_| rng.gen_range(1..=10i64)).collect();
        Outcome::from_result(s.run(|txn| {
            let _wrow = txn.read_by_key(self.t.warehouse, w)?;
            let _crow = txn.read_by_key(self.t.customer, cust_key(w, d, c))?;
            // Allocate the order number from the district row.
            let mut o_id = 0;
            txn.update_by_key(self.t.district, dist_key(w, d), |old| {
                let mut row = old.to_vec();
                o_id = get_u64(&row, district_field::NEXT_O_ID);
                put_u64(&mut row, district_field::NEXT_O_ID, o_id + 1);
                row
            })?;
            let mut total = 0i64;
            for (line, (&i_id, &qty)) in items.iter().zip(qtys.iter()).enumerate() {
                let item = match txn.read_by_key(self.t.item, i_id) {
                    Ok(row) => row,
                    Err(TxnError::NotFound) => {
                        return Err(txn.user_abort("invalid item id"));
                    }
                    Err(e) => return Err(e),
                };
                let price = get_i64(&item, 8);
                txn.update_by_key(self.t.stock, stock_key(w, i_id), |old| {
                    let mut row = old.to_vec();
                    let q = get_i64(&row, stock_field::QUANTITY);
                    let newq = if q - qty >= 10 { q - qty } else { q - qty + 91 };
                    put_i64(&mut row, stock_field::QUANTITY, newq);
                    let v = get_i64(&row, stock_field::YTD) + qty;
                    put_i64(&mut row, stock_field::YTD, v);
                    let v = get_i64(&row, stock_field::ORDER_CNT) + 1;
                    put_i64(&mut row, stock_field::ORDER_CNT, v);
                    row
                })?;
                let amount = price * qty;
                total += amount;
                let mut ol = vec![0u8; ORDER_LINE_LEN];
                put_u64(&mut ol, 0, order_key(w, d, o_id));
                put_u64(&mut ol, order_line_field::I_ID, i_id);
                put_i64(&mut ol, order_line_field::QTY, qty);
                put_i64(&mut ol, order_line_field::AMOUNT, amount);
                let k = order_line_key(w, d, o_id, line as u64);
                txn.insert_with_okey(self.t.order_line, k, Some(k), &ol)?;
            }
            let _ = total;
            let mut row = vec![0u8; ORDER_LEN];
            put_u64(&mut row, 0, order_key(w, d, o_id));
            put_u64(&mut row, order_field::C_ID, c);
            put_u64(&mut row, order_field::OL_CNT, ol_cnt);
            txn.insert_with_okey(
                self.t.order,
                order_key(w, d, o_id),
                Some(order_okey(w, d, c, o_id)),
                &row,
            )?;
            let mut no = vec![0u8; NEW_ORDER_LEN];
            put_u64(&mut no, 0, order_key(w, d, o_id));
            txn.insert_with_okey(
                self.t.new_order,
                order_key(w, d, o_id),
                Some(new_order_okey(w, d, o_id)),
                &no,
            )?;
            Ok(())
        }))
    }

    /// Payment: apply a payment to warehouse, district, and customer, and
    /// append a history row.
    pub fn payment(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let (w, d) = self.rand_wd(rng);
        let c = rng.gen_range(1..=self.scale.customers_per_district);
        let amount = rng.gen_range(100..500_000i64);
        // ordering: relaxed — a pure id allocator; uniqueness comes from
        // the atomic RMW.
        let hid = self.history_seq.fetch_add(1, Ordering::Relaxed) + 1;
        Outcome::from_result(s.run(|txn| {
            txn.update_by_key(self.t.warehouse, w, |old| {
                let mut row = old.to_vec();
                let v = get_i64(&row, 8) + amount;
                put_i64(&mut row, 8, v);
                row
            })?;
            txn.update_by_key(self.t.district, dist_key(w, d), |old| {
                let mut row = old.to_vec();
                let v = get_i64(&row, district_field::YTD) + amount;
                put_i64(&mut row, district_field::YTD, v);
                row
            })?;
            txn.update_by_key(self.t.customer, cust_key(w, d, c), |old| {
                let mut row = old.to_vec();
                let v = get_i64(&row, customer_field::BALANCE) - amount;
                put_i64(&mut row, customer_field::BALANCE, v);
                let v = get_i64(&row, customer_field::YTD_PAYMENT) + amount;
                put_i64(&mut row, customer_field::YTD_PAYMENT, v);
                let v = get_i64(&row, customer_field::PAYMENT_CNT) + 1;
                put_i64(&mut row, customer_field::PAYMENT_CNT, v);
                row
            })?;
            let mut h = vec![0u8; HISTORY_LEN];
            put_u64(&mut h, 0, cust_key(w, d, c));
            put_i64(&mut h, 8, amount);
            put_filler(&mut h, 16, HISTORY_LEN - 16, hid);
            txn.insert(self.t.history, hid, &h)?;
            Ok(())
        }))
    }

    /// Order Status: the customer's most recent order and its lines.
    pub fn order_status(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let (w, d) = self.rand_wd(rng);
        let c = rng.gen_range(1..=self.scale.customers_per_district);
        Outcome::from_result(s.run(|txn| {
            let _crow = txn.read_by_key(self.t.customer, cust_key(w, d, c))?;
            let lo = order_okey(w, d, c, 0);
            let hi = order_okey(w, d, c, (1 << 24) - 1);
            let Some((okey, rid)) = txn.ordered_last(self.t.order, lo, hi) else {
                return Err(txn.user_abort("customer has no orders"));
            };
            let order = txn.read(self.t.order, rid)?;
            let o_id = okey & ((1 << 24) - 1);
            let ol_cnt = get_u64(&order, order_field::OL_CNT);
            let line_lo = order_line_key(w, d, o_id, 0);
            let line_hi = order_line_key(w, d, o_id, 15);
            let mut sum = 0i64;
            txn.scan_ordered(self.t.order_line, line_lo, line_hi, 16, |_, row| {
                sum += get_i64(row, order_line_field::AMOUNT);
            })?;
            let _ = (ol_cnt, sum);
            Ok(())
        }))
    }

    /// Delivery: deliver the oldest undelivered order in every district of
    /// one warehouse.
    pub fn delivery(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let w = rng.gen_range(1..=self.scale.warehouses);
        let carrier = rng.gen_range(1..=10u64);
        Outcome::from_result(s.run(|txn| {
            for d in 1..=DISTRICTS {
                let lo = new_order_okey(w, d, 0);
                let hi = new_order_okey(w, d, u32::MAX as u64);
                let Some((okey, _rid)) = txn.ordered_first(self.t.new_order, lo, hi) else {
                    continue; // district fully delivered: spec says skip
                };
                let o_id = okey & (u32::MAX as u64);
                txn.delete_by_key(
                    self.t.new_order,
                    order_key(w, d, o_id),
                    Some(new_order_okey(w, d, o_id)),
                )?;
                let mut c_id = 0;
                let mut ol_cnt = 0;
                txn.update_by_key(self.t.order, order_key(w, d, o_id), |old| {
                    let mut row = old.to_vec();
                    c_id = get_u64(&row, order_field::C_ID);
                    ol_cnt = get_u64(&row, order_field::OL_CNT);
                    put_u64(&mut row, order_field::CARRIER, carrier);
                    row
                })?;
                let mut amount_sum = 0i64;
                for line in 0..ol_cnt {
                    let k = order_line_key(w, d, o_id, line);
                    txn.update_by_key(self.t.order_line, k, |old| {
                        let mut row = old.to_vec();
                        amount_sum += get_i64(&row, order_line_field::AMOUNT);
                        put_u64(&mut row, order_line_field::DELIVERY_D, 1);
                        row
                    })?;
                }
                txn.update_by_key(self.t.customer, cust_key(w, d, c_id), |old| {
                    let mut row = old.to_vec();
                    let v = get_i64(&row, customer_field::BALANCE) + amount_sum;
                    put_i64(&mut row, customer_field::BALANCE, v);
                    let v = get_i64(&row, customer_field::DELIVERY_CNT) + 1;
                    put_i64(&mut row, customer_field::DELIVERY_CNT, v);
                    row
                })?;
            }
            Ok(())
        }))
    }

    /// Stock Level: count recently sold items whose stock is below a
    /// threshold (examines the order lines of the district's last 20
    /// orders — roughly 200 rows).
    pub fn stock_level(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let (w, d) = self.rand_wd(rng);
        let threshold = rng.gen_range(10..=20i64);
        Outcome::from_result(s.run(|txn| {
            let drow = txn.read_by_key(self.t.district, dist_key(w, d))?;
            let next_o = get_u64(&drow, district_field::NEXT_O_ID);
            let o_lo = next_o.saturating_sub(20);
            let line_lo = order_line_key(w, d, o_lo, 0);
            let line_hi = order_line_key(w, d, next_o, 0).saturating_sub(1);
            let mut item_ids = Vec::with_capacity(256);
            txn.scan_ordered(self.t.order_line, line_lo, line_hi, 400, |_, row| {
                item_ids.push(get_u64(row, order_line_field::I_ID));
            })?;
            item_ids.sort_unstable();
            item_ids.dedup();
            let mut low = 0;
            for i_id in item_ids {
                let stock = txn.read_by_key(self.t.stock, stock_key(w, i_id))?;
                if get_i64(&stock, stock_field::QUANTITY) < threshold {
                    low += 1;
                }
            }
            let _ = low;
            Ok(())
        }))
    }

    /// Run one named transaction.
    pub fn run(&self, kind: TpcCTxn, s: &Session, rng: &mut SmallRng) -> Outcome {
        match kind {
            TpcCTxn::NewOrder => self.new_order(s, rng),
            TpcCTxn::Payment => self.payment(s, rng),
            TpcCTxn::OrderStatus => self.order_status(s, rng),
            TpcCTxn::Delivery => self.delivery(s, rng),
            TpcCTxn::StockLevel => self.stock_level(s, rng),
        }
    }

    fn entry(self: &Arc<Self>, kind: TpcCTxn, name: &'static str, weight: f64) -> MixEntry {
        let me = Arc::clone(self);
        MixEntry {
            name,
            weight,
            run: Box::new(move |s, rng| me.run(kind, s, rng)),
        }
    }

    /// The paper's "small mix": Payment / New Order / Order Status at
    /// 46.7 / 48.9 / 4.3 %.
    pub fn small_mix(self: &Arc<Self>) -> MixedWorkload {
        MixedWorkload::new(
            "TPC-C Small Mix",
            vec![
                self.entry(TpcCTxn::Payment, "Payment", 46.7),
                self.entry(TpcCTxn::NewOrder, "NewOrder", 48.9),
                self.entry(TpcCTxn::OrderStatus, "OrderStatus", 4.3),
            ],
        )
    }

    /// The full five-transaction mix at spec frequencies.
    pub fn full_mix(self: &Arc<Self>) -> MixedWorkload {
        MixedWorkload::new(
            "TPC-C Mix",
            vec![
                self.entry(TpcCTxn::NewOrder, "NewOrder", 45.0),
                self.entry(TpcCTxn::Payment, "Payment", 43.0),
                self.entry(TpcCTxn::OrderStatus, "OrderStatus", 4.0),
                self.entry(TpcCTxn::Delivery, "Delivery", 4.0),
                self.entry(TpcCTxn::StockLevel, "StockLevel", 4.0),
            ],
        )
    }

    /// Verify TPC-C structural invariants on a database resolved by table
    /// *name*, so a recovered database checks too:
    ///
    /// 1. money conservation: every warehouse's YTD equals the sum of its
    ///    districts' YTDs (Payment updates both or neither);
    /// 2. order density: each district's `NEXT_O_ID` agrees with the
    ///    orders actually present — ids `1..NEXT_O_ID` exist, `NEXT_O_ID`
    ///    does not (New Order allocates the id and inserts the order in
    ///    one transaction);
    /// 3. completeness: every order's `OL_CNT` order lines exist, and
    ///    every new-order row points at an existing order.
    ///
    /// An `Err` describes the first violated invariant.
    pub fn check_recovered(db: &Arc<Database>, scale: TpcCScale) -> Result<(), String> {
        let resolve = |name: &str| {
            db.table_handle(name)
                .ok_or_else(|| format!("table {name} missing after recovery"))
        };
        let warehouse = resolve("tpcc_warehouse")?;
        let district = resolve("tpcc_district")?;
        let order = resolve("tpcc_order")?;
        let new_order = resolve("tpcc_new_order")?;
        let order_line = resolve("tpcc_order_line")?;

        let mut new_order_rows = 0u64;
        for w in 1..=scale.warehouses {
            let wrow = db
                .peek(warehouse, w)
                .ok_or_else(|| format!("warehouse {w} missing"))?;
            let w_ytd = get_i64(&wrow, 8);
            let mut d_ytd_sum = 0i64;
            for d in 1..=DISTRICTS {
                let drow = db
                    .peek(district, dist_key(w, d))
                    .ok_or_else(|| format!("district {w}/{d} missing"))?;
                d_ytd_sum += get_i64(&drow, district_field::YTD);
                let next_o = get_u64(&drow, district_field::NEXT_O_ID);
                if db.peek(order, order_key(w, d, next_o)).is_some() {
                    return Err(format!(
                        "district {w}/{d}: order {next_o} exists past NEXT_O_ID"
                    ));
                }
                for o in 1..next_o {
                    let orow = db.peek(order, order_key(w, d, o)).ok_or_else(|| {
                        format!("district {w}/{d}: order {o} < NEXT_O_ID {next_o} missing")
                    })?;
                    let ol_cnt = get_u64(&orow, order_field::OL_CNT);
                    for line in 0..ol_cnt {
                        if db.peek(order_line, order_line_key(w, d, o, line)).is_none() {
                            return Err(format!("order {w}/{d}/{o}: line {line}/{ol_cnt} missing"));
                        }
                    }
                    if db.peek(new_order, order_key(w, d, o)).is_some() {
                        new_order_rows += 1;
                    }
                }
            }
            if w_ytd != d_ytd_sum {
                return Err(format!(
                    "warehouse {w}: YTD {w_ytd} != district YTD sum {d_ytd_sum}"
                ));
            }
        }
        // Every new-order row was seen attached to an existing order.
        let total = db.record_count(new_order);
        if total != new_order_rows {
            return Err(format!(
                "{} new-order rows but only {new_order_rows} point at existing orders",
                total
            ));
        }
        Ok(())
    }

    /// A single-transaction workload.
    pub fn single(self: &Arc<Self>, kind: TpcCTxn) -> MixedWorkload {
        let name = match kind {
            TpcCTxn::NewOrder => "NewOrder",
            TpcCTxn::Payment => "Payment",
            TpcCTxn::OrderStatus => "OrderStatus",
            TpcCTxn::Delivery => "Delivery",
            TpcCTxn::StockLevel => "StockLevel",
        };
        MixedWorkload::new(name, vec![self.entry(kind, name, 1.0)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_engine::DatabaseConfig;

    fn tiny() -> (Arc<Database>, Arc<TpcC>) {
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tpcc = TpcC::load(&db, TpcCScale::tiny(), 42);
        (db, tpcc)
    }

    #[test]
    fn load_counts_match_scale() {
        let (db, c) = tiny();
        let s = c.scale;
        assert_eq!(db.record_count(c.t.warehouse), s.warehouses);
        assert_eq!(db.record_count(c.t.district), s.warehouses * DISTRICTS);
        assert_eq!(
            db.record_count(c.t.customer),
            s.warehouses * DISTRICTS * s.customers_per_district
        );
        assert_eq!(db.record_count(c.t.item), s.items);
        assert_eq!(db.record_count(c.t.stock), s.warehouses * s.items);
        assert_eq!(
            db.record_count(c.t.order),
            s.warehouses * DISTRICTS * s.initial_orders_per_district
        );
        let undelivered = db.record_count(c.t.new_order);
        let total_orders = db.record_count(c.t.order);
        let frac = undelivered as f64 / total_orders as f64;
        assert!((frac - 0.3).abs() < 0.05, "undelivered fraction {frac}");
    }

    #[test]
    fn all_five_transactions_run() {
        let (db, c) = tiny();
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(17);
        for kind in [
            TpcCTxn::NewOrder,
            TpcCTxn::Payment,
            TpcCTxn::OrderStatus,
            TpcCTxn::Delivery,
            TpcCTxn::StockLevel,
        ] {
            let mut committed = false;
            for _ in 0..20 {
                match c.run(kind, &s, &mut rng) {
                    Outcome::Commit => {
                        committed = true;
                        break;
                    }
                    Outcome::UserFail => {}
                    Outcome::SysAbort => {}
                }
            }
            assert!(committed, "{kind:?} never committed");
        }
    }

    #[test]
    fn new_order_advances_district_counter_and_creates_rows() {
        let (db, c) = tiny();
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(3);
        let orders_before = db.record_count(c.t.order);
        let mut commits = 0;
        for _ in 0..30 {
            if c.new_order(&s, &mut rng) == Outcome::Commit {
                commits += 1;
            }
        }
        assert_eq!(db.record_count(c.t.order), orders_before + commits);
        assert!(commits >= 25, "1% poison rate shouldn't dominate");
    }

    #[test]
    fn delivery_drains_new_orders() {
        let (db, c) = tiny();
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(9);
        let before = db.record_count(c.t.new_order);
        assert_eq!(c.delivery(&s, &mut rng), Outcome::Commit);
        let after = db.record_count(c.t.new_order);
        // One warehouse, all 10 districts with pending orders: 10 drained.
        assert_eq!(before - after, DISTRICTS);
    }

    #[test]
    fn payment_conserves_money_between_customer_and_warehouse() {
        let (db, c) = tiny();
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..50 {
            assert_eq!(c.payment(&s, &mut rng), Outcome::Commit);
        }
        // Sum of warehouse ytd == sum of district ytd == total payments.
        let mut w_sum = 0i64;
        for w in 1..=c.scale.warehouses {
            w_sum += get_i64(&db.peek(c.t.warehouse, w).unwrap(), 8);
        }
        let mut d_sum = 0i64;
        for w in 1..=c.scale.warehouses {
            for d in 1..=DISTRICTS {
                d_sum += get_i64(
                    &db.peek(c.t.district, dist_key(w, d)).unwrap(),
                    district_field::YTD,
                );
            }
        }
        assert_eq!(w_sum, d_sum);
        assert!(w_sum > 0);
    }

    #[test]
    fn key_packing_is_injective_at_bounds() {
        let mut keys = std::collections::HashSet::new();
        for w in [1u64, 7, 4095] {
            for d in 1..=DISTRICTS {
                for o in [0u64, 1, 1 << 20] {
                    for line in 0..16 {
                        assert!(keys.insert(order_line_key(w, d, o, line)));
                    }
                    assert!(keys.insert(order_key(w, d, o)));
                }
            }
        }
    }
}
