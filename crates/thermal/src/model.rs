//! The lumped-RC thermal network and its solvers.

use sim_common::{Floorplan, Kelvin, SimError, Structure, StructureMap, Watts};

/// Thermal parameters of the package.
///
/// [`ThermalParams::hotspot_65nm`] is calibrated (HotSpot-style defaults,
/// 45 °C ambient) so that the paper's hottest application peaks near 400 K
/// on the base processor while the coolest runs near 345 K — the spread the
/// paper's `T_qual` sweep (325–400 K) is built around.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalParams {
    /// Vertical resistance from a block to the spreader, in K·mm²/W
    /// (divide by block area for the block's resistance): bulk silicon
    /// plus the thermal interface material.
    pub r_vertical_per_area: f64,
    /// Lateral resistance between adjacent blocks, in K·mm/W (divide by
    /// shared edge length).
    pub r_lateral_per_edge: f64,
    /// Spreader-to-sink resistance, K/W.
    pub r_spreader_sink: f64,
    /// Sink-to-ambient (convection) resistance, K/W.
    pub r_sink_ambient: f64,
    /// Block heat capacity per area, J/(K·mm²).
    pub c_block_per_area: f64,
    /// Spreader heat capacity, J/K.
    pub c_spreader: f64,
    /// Sink heat capacity, J/K.
    pub c_sink: f64,
    /// Ambient temperature.
    pub ambient: Kelvin,
}

impl ThermalParams {
    /// HotSpot-style defaults for the 20.25 mm² 65 nm core: 45 °C ambient,
    /// 0.8 K/W convection.
    pub fn hotspot_65nm() -> ThermalParams {
        ThermalParams {
            // 0.5 mm silicon (k = 100 W/m·K) + TIM, folded into one
            // effective constant.
            r_vertical_per_area: 24.0,
            // ~1.5 mm block pitch through 0.5 mm silicon.
            r_lateral_per_edge: 25.0,
            r_spreader_sink: 0.07,
            r_sink_ambient: 0.8,
            // 1.75e6 J/(m³·K) × 0.5 mm thickness.
            c_block_per_area: 0.875e-3,
            c_spreader: 3.2,
            c_sink: 90.0,
            ambient: Kelvin::from_celsius(45.0),
        }
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-positive resistances,
    /// capacitances, or ambient temperature.
    pub fn validate(&self) -> Result<(), SimError> {
        for (label, v) in [
            ("r_vertical_per_area", self.r_vertical_per_area),
            ("r_lateral_per_edge", self.r_lateral_per_edge),
            ("r_spreader_sink", self.r_spreader_sink),
            ("r_sink_ambient", self.r_sink_ambient),
            ("c_block_per_area", self.c_block_per_area),
            ("c_spreader", self.c_spreader),
            ("c_sink", self.c_sink),
            ("ambient", self.ambient.0),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(SimError::invalid_config(format!(
                    "{label} must be positive and finite, got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams::hotspot_65nm()
    }
}

/// Transient thermal state: one temperature per network node.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalState {
    temps: [f64; N_NODES],
}

impl ThermalState {
    /// Temperature of a block node.
    pub fn block(&self, s: Structure) -> Kelvin {
        Kelvin(self.temps[s.index()])
    }

    /// All block temperatures.
    pub fn blocks(&self) -> StructureMap<Kelvin> {
        StructureMap::from_fn(|s| self.block(s))
    }

    /// Spreader temperature.
    pub fn spreader(&self) -> Kelvin {
        Kelvin(self.temps[Structure::COUNT])
    }

    /// Heat-sink temperature.
    pub fn sink(&self) -> Kelvin {
        Kelvin(self.temps[Structure::COUNT + 1])
    }
}

const N_BLOCKS: usize = Structure::COUNT;
const SPREADER: usize = N_BLOCKS;
const SINK: usize = N_BLOCKS + 1;
const N_NODES: usize = N_BLOCKS + 2;

/// The thermal network: floorplan geometry + package parameters compiled
/// into a conductance matrix.
///
/// The steady-state system matrix `A` depends only on the network and on
/// whether the sink row is pinned — the pinned sink *value* lives in the
/// right-hand side — so both variants are LU-factored once at
/// construction and every [`ThermalModel::solve_steady`] call reduces to
/// a forward/backward substitution over the prefactored matrix.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    params: ThermalParams,
    floorplan: Floorplan,
    /// Conductances g[i][j] between nodes (0 where unconnected).
    conductance: [[f64; N_NODES]; N_NODES],
    /// Conductance from each node to ambient (only the sink's is nonzero).
    g_ambient: [f64; N_NODES],
    /// Heat capacity per node.
    capacity: [f64; N_NODES],
    /// LU factors of the free-sink steady-state matrix.
    lu_free: LuFactors,
    /// LU factors of the pinned-sink steady-state matrix (sink row
    /// replaced by the identity; the pin value enters through `b`).
    lu_pinned: LuFactors,
}

impl ThermalModel {
    /// Builds the network for a floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the parameters fail
    /// [`ThermalParams::validate`].
    pub fn new(params: ThermalParams, floorplan: Floorplan) -> Result<ThermalModel, SimError> {
        params.validate()?;
        let mut g = [[0.0; N_NODES]; N_NODES];
        let mut g_amb = [0.0; N_NODES];
        let mut c = [0.0; N_NODES];

        for s in Structure::ALL {
            let i = s.index();
            let area = floorplan.block(s).area().0;
            // Vertical path to the spreader.
            let g_v = area / params.r_vertical_per_area;
            g[i][SPREADER] += g_v;
            g[SPREADER][i] += g_v;
            // Lateral paths to adjacent blocks.
            for o in Structure::ALL {
                if o.index() <= i {
                    continue;
                }
                let edge = floorplan.shared_edge(s, o);
                if edge > 0.0 {
                    let g_l = edge / params.r_lateral_per_edge;
                    g[i][o.index()] += g_l;
                    g[o.index()][i] += g_l;
                }
            }
            c[i] = params.c_block_per_area * area;
        }
        let g_ss = 1.0 / params.r_spreader_sink;
        g[SPREADER][SINK] += g_ss;
        g[SINK][SPREADER] += g_ss;
        g_amb[SINK] = 1.0 / params.r_sink_ambient;
        c[SPREADER] = params.c_spreader;
        c[SINK] = params.c_sink;

        let free = assemble_steady_matrix(&g, &g_amb, false);
        let pinned = assemble_steady_matrix(&g, &g_amb, true);
        Ok(ThermalModel {
            params,
            floorplan,
            conductance: g,
            g_ambient: g_amb,
            capacity: c,
            lu_free: LuFactors::factor(free),
            lu_pinned: LuFactors::factor(pinned),
        })
    }

    /// The default 65 nm model on the default floorplan.
    pub fn hotspot_65nm() -> ThermalModel {
        ThermalModel::new(ThermalParams::hotspot_65nm(), Floorplan::r10000_65nm())
            .expect("default parameters are valid")
    }

    /// The package parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// A state with every node at ambient temperature.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState {
            temps: [self.params.ambient.0; N_NODES],
        }
    }

    fn power_vector(&self, power: &StructureMap<Watts>) -> [f64; N_NODES] {
        let mut p = [0.0; N_NODES];
        for (s, w) in power.iter() {
            p[s.index()] = w.0;
        }
        p
    }

    /// Steady-state heat-sink temperature for a given total power — the
    /// first pass of the paper's two-pass protocol (§6.3).
    pub fn steady_sink_temperature(&self, total_power: Watts) -> Kelvin {
        Kelvin(self.params.ambient.0 + self.params.r_sink_ambient * total_power.0)
    }

    /// Equilibrium block temperatures for a constant power map, with every
    /// node (including the sink) free.
    pub fn steady_state(&self, power: &StructureMap<Watts>) -> StructureMap<Kelvin> {
        let state = self.solve_steady(power, None);
        state.blocks()
    }

    /// Equilibrium block temperatures with the heat sink *pinned* at
    /// `sink` — the second pass of the two-pass protocol: the sink is too
    /// slow to move during a simulation, so it is fixed at the temperature
    /// computed from the first pass's average power.
    pub fn steady_state_with_sink(
        &self,
        power: &StructureMap<Watts>,
        sink: Kelvin,
    ) -> StructureMap<Kelvin> {
        let state = self.solve_steady(power, Some(sink));
        state.blocks()
    }

    /// [`ThermalModel::steady_state_with_sink`] for `L` independent
    /// lanes at once: lane `l` of the result is bit-identical to
    /// `steady_state_with_sink(&lane l of power, sinks[l])`, but the
    /// substitution walks the prefactored matrix once for every lane.
    ///
    /// Counts no `thermal.solves`: a caller that pads a lane group knows
    /// which lanes are live and counts those.
    pub fn steady_states_with_sink<const L: usize>(
        &self,
        power: &StructureMap<[Watts; L]>,
        sinks: [Kelvin; L],
    ) -> StructureMap<[Kelvin; L]> {
        let temps = self.lu_pinned.solve(self.steady_rhs(power, Some(sinks)));
        StructureMap::from_fn(|s| temps[s.index()].map(Kelvin))
    }

    /// The right-hand sides `b` of `A·T = b` for `L` lanes, node by node.
    fn steady_rhs<const L: usize>(
        &self,
        power: &StructureMap<[Watts; L]>,
        pinned_sinks: Option<[Kelvin; L]>,
    ) -> [[f64; L]; N_NODES] {
        let mut b = [[0.0f64; L]; N_NODES];
        for (s, w) in power.iter() {
            b[s.index()] = w.map(|w| w.0);
        }
        for (i, lanes) in b.iter_mut().enumerate() {
            for x in lanes {
                *x += self.g_ambient[i] * self.params.ambient.0;
            }
        }
        if let Some(sinks) = pinned_sinks {
            b[SINK] = sinks.map(|k| k.0);
        }
        b
    }

    /// Full steady solve returning every node, via the LU factors
    /// computed at construction (bit-identical to
    /// [`ThermalModel::solve_steady_unfactored`], which eliminates from
    /// scratch — the factorization replays exactly the same pivoting and
    /// arithmetic).
    pub fn solve_steady(
        &self,
        power: &StructureMap<Watts>,
        pinned_sink: Option<Kelvin>,
    ) -> ThermalState {
        let b = self.steady_rhs(&power.map(|_, &w| [w]), pinned_sink.map(|k| [k]));
        let factors = if pinned_sink.is_some() {
            &self.lu_pinned
        } else {
            &self.lu_free
        };
        let temps = factors.solve(b).map(|[t]| t);
        sim_obs::counter!("thermal.solves", 1);
        sim_obs::counter!("thermal.factor_reuse", 1);
        ThermalState { temps }
    }

    /// Reference steady solve that assembles `A` and runs Gaussian
    /// elimination from scratch on every call — the pre-factorization
    /// code path, kept as the ground truth the parity and property tests
    /// compare [`ThermalModel::solve_steady`] against.
    pub fn solve_steady_unfactored(
        &self,
        power: &StructureMap<Watts>,
        pinned_sink: Option<Kelvin>,
    ) -> ThermalState {
        let a = assemble_steady_matrix(&self.conductance, &self.g_ambient, pinned_sink.is_some());
        let b = self.steady_rhs(&power.map(|_, &w| [w]), pinned_sink.map(|k| [k]));
        let temps = solve_dense(a, b.map(|[v]| v));
        sim_obs::counter!("thermal.solves", 1);
        ThermalState { temps }
    }

    /// Advances the transient state by `dt` seconds under constant `power`,
    /// using explicit Euler with internally chosen stable substeps.
    #[allow(clippy::needless_range_loop)] // dense numeric kernel: indices are clearest
    pub fn transient_step(&self, state: &mut ThermalState, power: &StructureMap<Watts>, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        let p = self.power_vector(power);
        // Stability: substep << min(C_i / Gtot_i).
        let mut min_tau = f64::INFINITY;
        for i in 0..N_NODES {
            let mut gtot = self.g_ambient[i];
            for j in 0..N_NODES {
                if i != j {
                    gtot += self.conductance[i][j];
                }
            }
            min_tau = min_tau.min(self.capacity[i] / gtot);
        }
        let h = (min_tau * 0.2).min(dt.max(1e-12));
        let steps = (dt / h).ceil().max(1.0) as usize;
        let h = dt / steps as f64;
        sim_obs::counter!("thermal.transient_steps", 1);
        sim_obs::counter!("thermal.transient_substeps", steps as u64);
        for _ in 0..steps {
            let mut dq = [0.0f64; N_NODES];
            for i in 0..N_NODES {
                let mut flow = p[i] + self.g_ambient[i] * (self.params.ambient.0 - state.temps[i]);
                for j in 0..N_NODES {
                    if i != j {
                        flow += self.conductance[i][j] * (state.temps[j] - state.temps[i]);
                    }
                }
                dq[i] = flow / self.capacity[i];
            }
            for i in 0..N_NODES {
                state.temps[i] += h * dq[i];
            }
        }
    }
}

/// Assembles the steady-state system matrix `A` of `A·T = b`: the
/// diagonal carries the sum of all conductances leaving the node and
/// off-diagonals are negative. With `pinned`, the sink row is replaced
/// by the identity so the right-hand side can pin its temperature.
#[allow(clippy::needless_range_loop)] // dense numeric kernel: indices are clearest
fn assemble_steady_matrix(
    g: &[[f64; N_NODES]; N_NODES],
    g_ambient: &[f64; N_NODES],
    pinned: bool,
) -> [[f64; N_NODES]; N_NODES] {
    let mut a = [[0.0f64; N_NODES]; N_NODES];
    for i in 0..N_NODES {
        let mut diag = g_ambient[i];
        for j in 0..N_NODES {
            if i != j {
                a[i][j] = -g[i][j];
                diag += g[i][j];
            }
        }
        a[i][i] = diag;
    }
    if pinned {
        for j in 0..N_NODES {
            a[SINK][j] = 0.0;
        }
        a[SINK][SINK] = 1.0;
    }
    a
}

/// An LU factorization (partial pivoting) of a steady-state matrix.
///
/// [`LuFactors::factor`] runs exactly the elimination [`solve_dense`]
/// runs — same pivot selection, same multipliers, same update order —
/// but records the multipliers in the zeroed lower triangle, and
/// [`LuFactors::solve`] replays the right-hand-side updates in the same
/// order, so `factor(a).solve(b)` is bit-identical to `solve_dense(a, b)`
/// while amortizing the O(n³) elimination across every solve.
#[derive(Debug, Clone)]
struct LuFactors {
    /// U in the upper triangle (diagonal included), the elimination
    /// multipliers in the strict lower triangle.
    lu: [[f64; N_NODES]; N_NODES],
    /// Row swapped with `col` at pivot step `col`.
    piv: [usize; N_NODES],
}

impl LuFactors {
    #[allow(clippy::needless_range_loop)] // dense numeric kernel: indices are clearest
    fn factor(mut a: [[f64; N_NODES]; N_NODES]) -> LuFactors {
        let mut piv = [0usize; N_NODES];
        for col in 0..N_NODES {
            let pivot = (col..N_NODES)
                .max_by(|&i, &j| {
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .expect("finite")
                })
                .expect("non-empty range");
            // Swap only the active columns: the lower triangle holds
            // multipliers from earlier steps, which must stay at the
            // positions where the interleaved replay in `solve` applies
            // them (a full-row swap would permute them a second time).
            if pivot != col {
                for k in col..N_NODES {
                    let tmp = a[col][k];
                    a[col][k] = a[pivot][k];
                    a[pivot][k] = tmp;
                }
            }
            piv[col] = pivot;
            let diag = a[col][col];
            assert!(
                diag.abs() > 1e-30,
                "singular thermal conductance matrix (disconnected node?)"
            );
            for row in (col + 1)..N_NODES {
                let f = a[row][col] / diag;
                if f != 0.0 {
                    for k in col..N_NODES {
                        a[row][k] -= f * a[col][k];
                    }
                }
                // The eliminated slot is never read again; store the
                // multiplier there for the solve-time replay.
                a[row][col] = f;
            }
        }
        LuFactors { lu: a, piv }
    }

    /// Solves `A·x = b` for `L` right-hand sides at once, stored node by
    /// node with the lanes innermost. Every lane runs exactly the
    /// operations of a one-lane solve, in the same order (the `f != 0.0`
    /// skip depends only on the factors), so each lane is bit-identical
    /// to solving it alone; the pivots, multipliers and loop control are
    /// paid once for all lanes.
    #[allow(clippy::needless_range_loop)] // dense numeric kernel: indices are clearest
    fn solve<const L: usize>(&self, mut b: [[f64; L]; N_NODES]) -> [[f64; L]; N_NODES] {
        for col in 0..N_NODES {
            b.swap(col, self.piv[col]);
            let pivot_row = b[col];
            for row in (col + 1)..N_NODES {
                let f = self.lu[row][col];
                if f != 0.0 {
                    for l in 0..L {
                        b[row][l] -= f * pivot_row[l];
                    }
                }
            }
        }
        let mut x = [[0.0f64; L]; N_NODES];
        for row in (0..N_NODES).rev() {
            let mut acc = b[row];
            for k in (row + 1)..N_NODES {
                let u = self.lu[row][k];
                for l in 0..L {
                    acc[l] -= u * x[k][l];
                }
            }
            let diag = self.lu[row][row];
            for l in 0..L {
                x[row][l] = acc[l] / diag;
            }
        }
        x
    }
}

/// Gaussian elimination with partial pivoting for the small dense node
/// system.
#[allow(clippy::needless_range_loop)] // dense numeric kernel: indices are clearest
fn solve_dense(mut a: [[f64; N_NODES]; N_NODES], mut b: [f64; N_NODES]) -> [f64; N_NODES] {
    for col in 0..N_NODES {
        // Pivot.
        let pivot = (col..N_NODES)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        assert!(
            diag.abs() > 1e-30,
            "singular thermal conductance matrix (disconnected node?)"
        );
        for row in (col + 1)..N_NODES {
            let f = a[row][col] / diag;
            if f != 0.0 {
                for k in col..N_NODES {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = [0.0f64; N_NODES];
    for row in (0..N_NODES).rev() {
        let mut acc = b[row];
        for k in (row + 1)..N_NODES {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        ThermalModel::hotspot_65nm()
    }

    fn uniform_power(w: f64) -> StructureMap<Watts> {
        StructureMap::splat(Watts(w))
    }

    #[test]
    fn zero_power_sits_at_ambient() {
        let m = model();
        let temps = m.steady_state(&uniform_power(0.0));
        for (s, t) in temps.iter() {
            assert!(
                (t.0 - m.params().ambient.0).abs() < 1e-6,
                "{s}: {t:?} not ambient"
            );
        }
    }

    #[test]
    fn sink_rise_matches_convection_resistance() {
        // Conservation: all heat leaves through the sink, so
        // T_sink − T_amb = R_conv · P_total.
        let m = model();
        let power = uniform_power(2.0); // 18 W total
        let state = m.solve_steady(&power, None);
        let expect = m.params().ambient.0 + 0.8 * 18.0;
        assert!((state.sink().0 - expect).abs() < 1e-6);
    }

    #[test]
    fn sink_helper_matches_full_solve() {
        let m = model();
        let power = uniform_power(3.0);
        let full = m.solve_steady(&power, None);
        let quick = m.steady_sink_temperature(Watts(27.0));
        assert!((full.sink().0 - quick.0).abs() < 1e-6);
    }

    #[test]
    fn hot_block_is_hottest() {
        let m = model();
        let mut power = uniform_power(1.0);
        power[Structure::Fpu] = Watts(8.0);
        let temps = m.steady_state(&power);
        let fpu = temps[Structure::Fpu];
        for (s, t) in temps.iter() {
            if s != Structure::Fpu {
                assert!(fpu > *t, "{s} ({t:?}) hotter than FPU ({fpu:?})");
            }
        }
    }

    #[test]
    fn more_power_is_monotonically_hotter() {
        let m = model();
        let low = m.steady_state(&uniform_power(1.0));
        let high = m.steady_state(&uniform_power(2.0));
        for (s, t) in high.iter() {
            assert!(*t > low[s], "{s}");
        }
    }

    #[test]
    fn neighbors_of_hot_block_warm_up() {
        let m = model();
        let mut power = uniform_power(0.5);
        power[Structure::Dcache] = Watts(10.0);
        let temps = m.steady_state(&power);
        // FpRegFile abuts Dcache; Bpred is across the die.
        assert!(temps[Structure::FpRegFile] > temps[Structure::Bpred]);
    }

    #[test]
    fn pinned_sink_controls_absolute_level() {
        let m = model();
        let power = uniform_power(2.0);
        let cold = m.steady_state_with_sink(&power, Kelvin(330.0));
        let hot = m.steady_state_with_sink(&power, Kelvin(360.0));
        for (s, t) in hot.iter() {
            let delta = t.0 - cold[s].0;
            assert!(
                (delta - 30.0).abs() < 0.5,
                "{s}: sink offset {delta} should track the pin"
            );
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let m = model();
        let mut power = uniform_power(1.5);
        power[Structure::Window] = Watts(6.0);
        let steady = m.solve_steady(&power, None);
        let mut state = m.ambient_state();
        // The sink time constant is ~72 s; integrate long enough.
        for _ in 0..600 {
            m.transient_step(&mut state, &power, 1.0);
        }
        for s in Structure::ALL {
            assert!(
                (state.block(s).0 - steady.block(s).0).abs() < 0.5,
                "{s}: transient {} vs steady {}",
                state.block(s).0,
                steady.block(s).0
            );
        }
    }

    #[test]
    fn blocks_respond_much_faster_than_sink() {
        let m = model();
        let power = uniform_power(3.0);
        let mut state = m.ambient_state();
        m.transient_step(&mut state, &power, 0.5);
        let steady = m.solve_steady(&power, None);
        let block_progress = (state.block(Structure::Fpu).0 - m.params().ambient.0)
            / (steady.block(Structure::Fpu).0 - m.params().ambient.0);
        let sink_progress =
            (state.sink().0 - m.params().ambient.0) / (steady.sink().0 - m.params().ambient.0);
        assert!(
            block_progress > 5.0 * sink_progress,
            "block {block_progress:.3} vs sink {sink_progress:.3}"
        );
    }

    #[test]
    fn transient_zero_dt_is_identity() {
        let m = model();
        let mut state = m.ambient_state();
        let before = state.clone();
        m.transient_step(&mut state, &uniform_power(5.0), 0.0);
        assert_eq!(state, before);
    }

    #[test]
    fn calibration_band_for_paper_power_range() {
        // The paper's hottest app dissipates ~36.5 W and reaches ~400 K;
        // the coolest ~15.6 W and stays well below. Check the model puts
        // realistic per-structure powers in that band.
        let m = model();
        // A hot multimedia-like distribution totaling ~36.5 W.
        let hot: StructureMap<Watts> = StructureMap::from_fn(|s| {
            Watts(match s {
                Structure::Dcache => 6.5,
                Structure::Window => 5.5,
                Structure::IntAlu => 5.5,
                Structure::Fpu => 4.5,
                Structure::Icache => 4.0,
                Structure::IntRegFile => 3.5,
                Structure::FpRegFile => 2.5,
                Structure::Lsq => 2.5,
                Structure::Bpred => 2.0,
            })
        });
        let temps = m.steady_state(&hot);
        let max = temps.iter().map(|(_, t)| t.0).fold(f64::MIN, f64::max);
        assert!(
            (380.0..=415.0).contains(&max),
            "hot app peak {max:.1} K outside the calibration band"
        );
        let cool = uniform_power(15.6 / 9.0);
        let temps = m.steady_state(&cool);
        let max = temps.iter().map(|(_, t)| t.0).fold(f64::MIN, f64::max);
        assert!(
            (330.0..=360.0).contains(&max),
            "cool app peak {max:.1} K outside the calibration band"
        );
    }

    #[test]
    fn prefactored_solve_is_bit_identical_to_fresh_elimination() {
        let m = model();
        let mut power = uniform_power(1.7);
        power[Structure::Fpu] = Watts(7.3);
        for pin in [None, Some(Kelvin(352.25))] {
            let lu = m.solve_steady(&power, pin);
            let ge = m.solve_steady_unfactored(&power, pin);
            assert_eq!(lu, ge, "pin {pin:?}");
        }
    }

    /// Eight right-hand sides substituted together equal eight one-lane
    /// substitutions bit for bit, on the free and on the pinned factors,
    /// over seeded power maps (some blocks unpowered) and sink pins; so
    /// does the public lane form of the pinned-sink solve.
    #[test]
    fn multi_rhs_substitution_equals_single_solves() {
        const L: usize = 8;
        let m = model();
        let mut rng = sim_common::Xoshiro256pp::seed_from_u64(0x1a9e5);
        for _ in 0..64 {
            let maps: [StructureMap<Watts>; L] = std::array::from_fn(|_| {
                StructureMap::from_fn(|_| {
                    let w = rng.gen_f64(-2.0..8.0);
                    Watts(w.max(0.0))
                })
            });
            let sinks: [Kelvin; L] = std::array::from_fn(|_| Kelvin(rng.gen_f64(318.0..400.0)));
            let lanes = StructureMap::from_fn(|s| maps.map(|p| p[s]));
            let public = m.steady_states_with_sink(&lanes, sinks);
            for (l, map) in maps.iter().enumerate() {
                let alone = m.steady_state_with_sink(map, sinks[l]);
                for s in Structure::ALL {
                    assert_eq!(
                        public[s][l].0.to_bits(),
                        alone[s].0.to_bits(),
                        "{s}, lane {l}"
                    );
                }
            }
            for (factors, pins) in [(&m.lu_free, None), (&m.lu_pinned, Some(sinks))] {
                let together = factors.solve(m.steady_rhs(&lanes, pins));
                for (l, map) in maps.iter().enumerate() {
                    let rhs = m.steady_rhs(&map.map(|_, &w| [w]), pins.map(|k| [k[l]]));
                    let alone = factors.solve(rhs);
                    for node in 0..N_NODES {
                        assert_eq!(
                            together[node][l].to_bits(),
                            alone[node][0].to_bits(),
                            "lane {l}, node {node}, pinned {}",
                            pins.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_nonpositive() {
        let mut p = ThermalParams::hotspot_65nm();
        p.r_sink_ambient = 0.0;
        assert!(p.validate().is_err());
        let mut p = ThermalParams::hotspot_65nm();
        p.c_sink = -1.0;
        assert!(p.validate().is_err());
    }
}
