//! The model grid and prognostic fields of the mini numerical weather
//! model that stands in for WRF (see DESIGN.md substitutions).

/// A 2-D field on the model grid (row-major, `ny` rows of `nx`).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Columns.
    pub nx: usize,
    /// Rows.
    pub ny: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Field {
    /// A constant-valued field.
    pub fn constant(nx: usize, ny: usize, value: f64) -> Field {
        Field {
            nx,
            ny,
            data: vec![value; nx * ny],
        }
    }

    /// Value at `(i, j)` (column, row), wrapping at the boundaries
    /// (periodic domain).
    pub fn at(&self, i: isize, j: isize) -> f64 {
        self.data[wrap(j, self.ny) * self.nx + wrap(i, self.nx)]
    }

    /// Mutable access at `(i, j)` without wrapping.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[j * self.nx + i]
    }

    /// Sets `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[j * self.nx + i] = value;
    }

    /// Domain mean.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len().max(1) as f64
    }

    /// Domain max.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// `index.rem_euclid(extent)`. The model's stencils and its advection
/// reach at most one domain past either edge, where a comparison and an
/// add replace the division; any other index takes the division.
pub(crate) fn wrap(index: isize, extent: usize) -> usize {
    let n = extent as isize;
    let shifted = if index < 0 {
        index.wrapping_add(n)
    } else if index >= n {
        index.wrapping_sub(n)
    } else {
        index
    };
    if (0..n).contains(&shifted) {
        shifted as usize
    } else {
        index.rem_euclid(n) as usize
    }
}

/// The prognostic state: a stripped-down primitive-equation layer set.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Zonal wind (m/s).
    pub u: Field,
    /// Meridional wind (m/s).
    pub v: Field,
    /// 2 m temperature (K).
    pub temp: Field,
    /// Surface pressure (hPa).
    pub pressure: Field,
    /// Specific humidity (g/kg).
    pub humidity: Field,
    /// Hours since simulation start.
    pub time_h: f64,
}

impl State {
    /// A quiescent atmosphere.
    pub(crate) fn uniform(nx: usize, ny: usize) -> State {
        State {
            u: Field::constant(nx, ny, 5.0),
            v: Field::constant(nx, ny, 0.0),
            temp: Field::constant(nx, ny, 288.0),
            pressure: Field::constant(nx, ny, 1013.0),
            humidity: Field::constant(nx, ny, 7.0),
            time_h: 0.0,
        }
    }

    /// Wind speed (m/s) at `(i, j)`.
    pub(crate) fn wind_speed(&self, i: usize, j: usize) -> f64 {
        let u = self.u.at(i as isize, j as isize);
        let v = self.v.at(i as isize, j as isize);
        (u * u + v * v).sqrt()
    }

    /// Wind direction in degrees (meteorological: direction the wind
    /// comes *from*, 0 = north).
    pub(crate) fn wind_direction_deg(&self, i: usize, j: usize) -> f64 {
        let u = self.u.at(i as isize, j as isize);
        let v = self.v.at(i as isize, j as isize);
        (270.0 - v.atan2(u).to_degrees()).rem_euclid(360.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Field {
        /// Root-mean-square difference against another field of the
        /// same shape: how the weather tests measure spread.
        pub(crate) fn rmse(&self, other: &Field) -> f64 {
            assert_eq!(self.data.len(), other.data.len(), "field shapes differ");
            let sum: f64 = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            (sum / self.data.len().max(1) as f64).sqrt()
        }
    }

    #[test]
    fn field_wraps_periodically() {
        let mut f = Field::constant(4, 3, 0.0);
        f.set(0, 0, 7.0);
        assert_eq!(f.at(0, 0), 7.0);
        assert_eq!(f.at(4, 3), 7.0); // wrap both axes
        assert_eq!(f.at(-4, -3), 7.0);
    }

    #[test]
    fn wrap_is_rem_euclid_for_any_index() {
        for extent in [1usize, 2, 3, 16, 24] {
            let n = extent as isize;
            let far = [isize::MIN, isize::MIN + 1, isize::MAX - 1, isize::MAX];
            for index in (-3 * n - 1..=3 * n + 1).chain(far) {
                assert_eq!(
                    wrap(index, extent),
                    index.rem_euclid(n) as usize,
                    "{index} mod {extent}"
                );
            }
        }
    }

    #[test]
    fn field_statistics() {
        let mut f = Field::constant(2, 2, 1.0);
        f.set(1, 1, 5.0);
        assert_eq!(f.mean(), 2.0);
        assert_eq!(f.max(), 5.0);
        let g = Field::constant(2, 2, 1.0);
        assert_eq!(g.rmse(&g), 0.0);
        assert!((f.rmse(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wind_diagnostics() {
        let mut s = State::uniform(2, 2);
        s.u.set(0, 0, 3.0);
        s.v.set(0, 0, 4.0);
        assert_eq!(s.wind_speed(0, 0), 5.0);
        // pure westerly (u>0, v=0) comes from 270 degrees
        s.u.set(1, 0, 10.0);
        s.v.set(1, 0, 0.0);
        assert!((s.wind_direction_deg(1, 0) - 270.0).abs() < 1e-9);
        // pure southerly (v>0) comes from 180
        s.u.set(0, 1, 0.0);
        s.v.set(0, 1, 10.0);
        assert!((s.wind_direction_deg(0, 1) - 180.0).abs() < 1e-9);
    }
}
