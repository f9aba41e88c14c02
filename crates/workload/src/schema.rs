//! Star-schema catalog: tables, columns and base statistics.
//!
//! Row counts follow the TPC-DS specification at scale factor 1 (the
//! scale the paper used); fact tables scale linearly with the scale
//! factor while dimensions scale sublinearly (we approximate the TPC-DS
//! dimension scaling with a square-root law, which is close enough for
//! the cost relationships that matter here).

/// A column with the statistics the optimizer and the data-generation
/// model need.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (TPC-DS style, e.g. `ss_sold_date_sk`).
    pub name: String,
    /// Number of distinct values at scale factor 1.
    pub ndv: u64,
    /// Storage width in bytes.
    pub width: u32,
    /// Zipf-like skew exponent of the value distribution. 0 = uniform;
    /// larger values concentrate mass on few values, which is what makes
    /// uniformity-based cardinality estimates go wrong.
    pub skew: f64,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: &str, ndv: u64, width: u32, skew: f64) -> Self {
        Column {
            name: name.to_string(),
            ndv,
            width,
            skew,
        }
    }
}

/// A base table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Row count at scale factor 1.
    pub base_rows: u64,
    /// True when this is a fact table (scales linearly with SF, joined
    /// through surrogate keys by the dimensions).
    pub fact: bool,
    /// Columns.
    pub columns: Vec<Column>,
}

impl Table {
    /// Row count at the given scale factor.
    pub fn rows(&self, scale_factor: f64) -> u64 {
        let f = if self.fact {
            scale_factor
        } else {
            scale_factor.sqrt()
        };
        ((self.base_rows as f64) * f).round().max(1.0) as u64
    }

    /// Full row width in bytes.
    pub fn row_width(&self) -> u64 {
        self.columns.iter().map(|c| c.width as u64).sum::<u64>()
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A schema: a named set of tables plus the scale factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema name (`tpcds` or `customer`).
    pub name: String,
    /// Scale factor; 1.0 matches the paper's setup.
    pub scale_factor: f64,
    /// Tables.
    pub tables: Vec<Table>,
}

impl Schema {
    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Row count of `table` at this schema's scale factor.
    pub fn rows(&self, table: &str) -> u64 {
        self.table(table)
            .map(|t| t.rows(self.scale_factor))
            .unwrap_or(0)
    }

    /// The TPC-DS-shaped schema at the given scale factor.
    ///
    /// Row counts are the TPC-DS SF-1 sizes; column NDVs/widths are
    /// representative, with deliberate skew on the columns real TPC-DS
    /// data skews on (sold-date, item, customer activity).
    pub fn tpcds(scale_factor: f64) -> Schema {
        fn t(name: &str, rows: u64, fact: bool, cols: Vec<Column>) -> Table {
            Table {
                name: name.to_string(),
                base_rows: rows,
                fact,
                columns: cols,
            }
        }
        let c = Column::new;
        let tables = vec![
            t(
                "store_sales",
                2_880_404,
                true,
                vec![
                    c("ss_sold_date_sk", 1823, 4, 0.4),
                    c("ss_item_sk", 18000, 4, 0.8),
                    c("ss_customer_sk", 100_000, 4, 0.6),
                    c("ss_store_sk", 12, 4, 0.3),
                    c("ss_promo_sk", 300, 4, 0.5),
                    c("ss_quantity", 100, 4, 0.0),
                    c("ss_sales_price", 20_000, 8, 0.2),
                    c("ss_ext_discount_amt", 100_000, 8, 0.2),
                    c("ss_net_profit", 150_000, 8, 0.2),
                    c("ss_ticket_number", 240_000, 8, 0.0),
                    c("ss_pad", 1, 48, 0.0),
                ],
            ),
            t(
                "catalog_sales",
                1_441_548,
                true,
                vec![
                    c("cs_sold_date_sk", 1823, 4, 0.4),
                    c("cs_item_sk", 18000, 4, 0.8),
                    c("cs_bill_customer_sk", 100_000, 4, 0.6),
                    c("cs_call_center_sk", 6, 4, 0.2),
                    c("cs_ship_mode_sk", 20, 4, 0.1),
                    c("cs_quantity", 100, 4, 0.0),
                    c("cs_sales_price", 20_000, 8, 0.2),
                    c("cs_net_profit", 150_000, 8, 0.2),
                    c("cs_order_number", 160_000, 8, 0.0),
                    c("cs_pad", 1, 64, 0.0),
                ],
            ),
            t(
                "web_sales",
                719_384,
                true,
                vec![
                    c("ws_sold_date_sk", 1823, 4, 0.4),
                    c("ws_item_sk", 18000, 4, 0.8),
                    c("ws_bill_customer_sk", 100_000, 4, 0.6),
                    c("ws_web_site_sk", 30, 4, 0.2),
                    c("ws_quantity", 100, 4, 0.0),
                    c("ws_sales_price", 20_000, 8, 0.2),
                    c("ws_net_profit", 120_000, 8, 0.2),
                    c("ws_order_number", 80_000, 8, 0.0),
                    c("ws_pad", 1, 60, 0.0),
                ],
            ),
            t(
                "store_returns",
                287_514,
                true,
                vec![
                    c("sr_returned_date_sk", 1823, 4, 0.4),
                    c("sr_item_sk", 18000, 4, 0.8),
                    c("sr_customer_sk", 100_000, 4, 0.6),
                    c("sr_ticket_number", 240_000, 8, 0.0),
                    c("sr_return_amt", 60_000, 8, 0.2),
                    c("sr_pad", 1, 40, 0.0),
                ],
            ),
            t(
                "catalog_returns",
                144_067,
                true,
                vec![
                    c("cr_returned_date_sk", 1823, 4, 0.4),
                    c("cr_item_sk", 18000, 4, 0.8),
                    c("cr_order_number", 160_000, 8, 0.0),
                    c("cr_return_amount", 40_000, 8, 0.2),
                    c("cr_pad", 1, 40, 0.0),
                ],
            ),
            t(
                "web_returns",
                71_763,
                true,
                vec![
                    c("wr_returned_date_sk", 1823, 4, 0.4),
                    c("wr_item_sk", 18000, 4, 0.8),
                    c("wr_order_number", 80_000, 8, 0.0),
                    c("wr_return_amt", 25_000, 8, 0.2),
                    c("wr_pad", 1, 36, 0.0),
                ],
            ),
            t(
                "inventory",
                11_745_000,
                true,
                vec![
                    c("inv_date_sk", 261, 4, 0.0),
                    c("inv_item_sk", 18000, 4, 0.0),
                    c("inv_warehouse_sk", 5, 4, 0.0),
                    c("inv_quantity_on_hand", 1000, 4, 0.1),
                ],
            ),
            t(
                "customer",
                100_000,
                false,
                vec![
                    c("c_customer_sk", 100_000, 4, 0.0),
                    c("c_current_addr_sk", 50_000, 4, 0.1),
                    c("c_birth_year", 70, 4, 0.1),
                    c("c_preferred_cust_flag", 2, 1, 0.0),
                    c("c_pad", 1, 120, 0.0),
                ],
            ),
            t(
                "customer_address",
                50_000,
                false,
                vec![
                    c("ca_address_sk", 50_000, 4, 0.0),
                    c("ca_state", 51, 2, 0.6),
                    c("ca_city", 700, 16, 0.5),
                    c("ca_gmt_offset", 8, 4, 0.4),
                    c("ca_pad", 1, 80, 0.0),
                ],
            ),
            t(
                "customer_demographics",
                1_920_800,
                false,
                vec![
                    c("cd_demo_sk", 1_920_800, 4, 0.0),
                    c("cd_gender", 2, 1, 0.0),
                    c("cd_marital_status", 5, 1, 0.1),
                    c("cd_education_status", 7, 12, 0.1),
                    c("cd_pad", 1, 24, 0.0),
                ],
            ),
            t(
                "date_dim",
                73_049,
                false,
                vec![
                    c("d_date_sk", 73_049, 4, 0.0),
                    c("d_year", 200, 4, 0.2),
                    c("d_moy", 12, 4, 0.0),
                    c("d_dow", 7, 4, 0.0),
                    c("d_qoy", 4, 4, 0.0),
                    c("d_pad", 1, 60, 0.0),
                ],
            ),
            t(
                "household_demographics",
                7_200,
                false,
                vec![
                    c("hd_demo_sk", 7_200, 4, 0.0),
                    c("hd_income_band_sk", 20, 4, 0.2),
                    c("hd_buy_potential", 6, 12, 0.2),
                    c("hd_dep_count", 10, 4, 0.0),
                ],
            ),
            t(
                "item",
                18_000,
                false,
                vec![
                    c("i_item_sk", 18_000, 4, 0.0),
                    c("i_category", 10, 16, 0.3),
                    c("i_class", 100, 16, 0.3),
                    c("i_brand", 700, 24, 0.4),
                    c("i_current_price", 1000, 8, 0.2),
                    c("i_pad", 1, 120, 0.0),
                ],
            ),
            t(
                "promotion",
                300,
                false,
                vec![
                    c("p_promo_sk", 300, 4, 0.0),
                    c("p_channel_email", 2, 1, 0.0),
                    c("p_channel_tv", 2, 1, 0.0),
                    c("p_pad", 1, 80, 0.0),
                ],
            ),
            t(
                "store",
                12,
                false,
                vec![
                    c("s_store_sk", 12, 4, 0.0),
                    c("s_state", 7, 2, 0.3),
                    c("s_number_employees", 12, 4, 0.0),
                    c("s_pad", 1, 160, 0.0),
                ],
            ),
            t(
                "time_dim",
                86_400,
                false,
                vec![
                    c("t_time_sk", 86_400, 4, 0.0),
                    c("t_hour", 24, 4, 0.0),
                    c("t_am_pm", 2, 2, 0.0),
                ],
            ),
            t(
                "warehouse",
                5,
                false,
                vec![
                    c("w_warehouse_sk", 5, 4, 0.0),
                    c("w_warehouse_sq_ft", 5, 4, 0.0),
                    c("w_pad", 1, 100, 0.0),
                ],
            ),
            t(
                "web_site",
                30,
                false,
                vec![c("web_site_sk", 30, 4, 0.0), c("web_pad", 1, 120, 0.0)],
            ),
            t(
                "web_page",
                60,
                false,
                vec![c("wp_web_page_sk", 60, 4, 0.0), c("wp_pad", 1, 60, 0.0)],
            ),
            t(
                "call_center",
                6,
                false,
                vec![c("cc_call_center_sk", 6, 4, 0.0), c("cc_pad", 1, 160, 0.0)],
            ),
            t(
                "catalog_page",
                11_718,
                false,
                vec![
                    c("cp_catalog_page_sk", 11_718, 4, 0.0),
                    c("cp_pad", 1, 80, 0.0),
                ],
            ),
            t(
                "ship_mode",
                20,
                false,
                vec![c("sm_ship_mode_sk", 20, 4, 0.0), c("sm_pad", 1, 40, 0.0)],
            ),
            t(
                "reason",
                35,
                false,
                vec![c("r_reason_sk", 35, 4, 0.0), c("r_pad", 1, 40, 0.0)],
            ),
            t(
                "income_band",
                20,
                false,
                vec![
                    c("ib_income_band_sk", 20, 4, 0.0),
                    c("ib_lower_bound", 20, 4, 0.0),
                ],
            ),
        ];
        Schema {
            name: "tpcds".to_string(),
            scale_factor,
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcds_has_expected_tables() {
        let s = Schema::tpcds(1.0);
        assert_eq!(s.tables.len(), 24);
        assert_eq!(s.rows("store_sales"), 2_880_404);
        assert_eq!(s.rows("store"), 12);
        assert!(s.table("store_sales").unwrap().fact);
        assert!(!s.table("item").unwrap().fact);
    }

    #[test]
    fn scale_factor_scales_facts_linearly_dims_sublinearly() {
        let s1 = Schema::tpcds(1.0);
        let s4 = Schema::tpcds(4.0);
        assert_eq!(s4.rows("store_sales"), 4 * s1.rows("store_sales"));
        // Dimensions: sqrt scaling → x2 at SF 4.
        assert_eq!(s4.rows("customer"), 2 * s1.rows("customer"));
    }

    #[test]
    fn row_width_sums_columns() {
        let s = Schema::tpcds(1.0);
        let t = s.table("inventory").unwrap();
        assert_eq!(t.row_width(), 16);
    }

    #[test]
    fn column_lookup() {
        let s = Schema::tpcds(1.0);
        let t = s.table("item").unwrap();
        assert_eq!(t.column("i_category").unwrap().ndv, 10);
        assert!(t.column("nope").is_none());
    }

    #[test]
    fn unknown_table_rows_zero() {
        assert_eq!(Schema::tpcds(1.0).rows("missing"), 0);
    }
}
