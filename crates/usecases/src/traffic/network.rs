//! The road network: a grid of intersections with segments carrying
//! time-dependent speed profiles (the traffic model of paper §II-D:
//! "macroscopic parameters for each road segment ... for each 15-minute
//! interval").

/// Number of 15-minute intervals in a day.
const INTERVALS_PER_DAY: usize = 96;

/// A node (intersection) position in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

impl Point {
    /// Euclidean distance.
    fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A directed road segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment id.
    pub id: usize,
    /// Start node.
    pub from: usize,
    /// End node.
    pub to: usize,
    /// Length in meters.
    pub length_m: f64,
    /// Free-flow speed (km/h).
    pub free_flow_kmh: f64,
    /// Mean speed per 15-min interval (km/h).
    pub speed_profile: Vec<f64>,
    /// Speed standard deviation per interval (km/h).
    pub speed_std: Vec<f64>,
}

impl Segment {
    /// Interval index for an hour-of-day.
    pub(crate) fn interval_of(hour: f64) -> usize {
        ((hour.rem_euclid(24.0) * 4.0) as usize).min(INTERVALS_PER_DAY - 1)
    }

    /// Mean speed at an hour of day.
    pub fn speed_at(&self, hour: f64) -> f64 {
        self.speed_profile[Self::interval_of(hour)]
    }
}

/// The network: grid nodes plus directed segments both ways.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    /// Node positions.
    pub nodes: Vec<Point>,
    /// Segments.
    pub segments: Vec<Segment>,
    /// Grid columns (for generators).
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
}

impl RoadNetwork {
    /// Builds a `cols × rows` Manhattan grid with `spacing_m` blocks.
    /// Horizontal arterials get higher free-flow speeds than vertical
    /// streets; rush hours (8:00, 17:30) dip speeds on all segments.
    pub fn grid(cols: usize, rows: usize, spacing_m: f64) -> RoadNetwork {
        let mut nodes = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                nodes.push(Point {
                    x: c as f64 * spacing_m,
                    y: r as f64 * spacing_m,
                });
            }
        }
        let mut segments = Vec::new();
        let add = |from: usize, to: usize, free: f64, segments: &mut Vec<Segment>| {
            let length = 0.0; // fixed below
            let id = segments.len();
            segments.push(Segment {
                id,
                from,
                to,
                length_m: length,
                free_flow_kmh: free,
                speed_profile: Vec::new(),
                speed_std: Vec::new(),
            });
        };
        for r in 0..rows {
            for c in 0..cols {
                let n = r * cols + c;
                if c + 1 < cols {
                    let arterial = if r % 3 == 0 { 70.0 } else { 50.0 };
                    add(n, n + 1, arterial, &mut segments);
                    add(n + 1, n, arterial, &mut segments);
                }
                if r + 1 < rows {
                    add(n, n + cols, 40.0, &mut segments);
                    add(n + cols, n, 40.0, &mut segments);
                }
            }
        }
        // fill geometry + profiles
        for s in &mut segments {
            let a = nodes[s.from];
            let b = nodes[s.to];
            s.length_m = a.distance(&b);
            let mut profile = Vec::with_capacity(INTERVALS_PER_DAY);
            let mut std = Vec::with_capacity(INTERVALS_PER_DAY);
            for k in 0..INTERVALS_PER_DAY {
                let hour = k as f64 / 4.0;
                let rush = rush_factor(hour);
                // deterministic per-segment texture
                let texture = 1.0 + 0.05 * ((s.id as f64 * 0.7).sin());
                profile.push((s.free_flow_kmh * rush * texture).max(5.0));
                std.push(2.0 + 6.0 * (1.0 - rush));
            }
            s.speed_profile = profile;
            s.speed_std = std;
        }
        RoadNetwork {
            nodes,
            segments,
            cols,
            rows,
        }
    }

    /// Outgoing segments of a node.
    pub(crate) fn outgoing(&self, node: usize) -> Vec<&Segment> {
        self.segments.iter().filter(|s| s.from == node).collect()
    }

    /// Closest point on a segment to `p`, returning `(point, distance)`.
    pub(crate) fn project_on_segment(&self, segment: &Segment, p: &Point) -> (Point, f64) {
        let a = self.nodes[segment.from];
        let b = self.nodes[segment.to];
        let (abx, aby) = (b.x - a.x, b.y - a.y);
        let len2 = (abx * abx + aby * aby).max(1e-12);
        let t = (((p.x - a.x) * abx + (p.y - a.y) * aby) / len2).clamp(0.0, 1.0);
        let proj = Point {
            x: a.x + t * abx,
            y: a.y + t * aby,
        };
        let d = proj.distance(p);
        (proj, d)
    }

    /// The `k` segments nearest to a point (brute force).
    pub(crate) fn nearest_segments(&self, p: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut d: Vec<(usize, f64)> = self
            .segments
            .iter()
            .map(|s| (s.id, self.project_on_segment(s, p).1))
            .collect();
        d.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"));
        d.truncate(k);
        d
    }
}

/// Rush-hour slowdown factor in (0, 1].
fn rush_factor(hour: f64) -> f64 {
    let morning = (-(hour - 8.0).powi(2) / 2.0).exp();
    let evening = (-(hour - 17.5).powi(2) / 2.5).exp();
    (1.0 - 0.45 * morning - 0.5 * evening).max(0.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_topology() {
        let net = RoadNetwork::grid(4, 3, 100.0);
        assert_eq!(net.nodes.len(), 12);
        // horizontal: 3*3 pairs *2; vertical: 4*2 pairs *2
        assert_eq!(net.segments.len(), 3 * 3 * 2 + 4 * 2 * 2);
        // all segments have geometry and profiles
        for s in &net.segments {
            assert!((s.length_m - 100.0).abs() < 1e-9);
            assert_eq!(s.speed_profile.len(), INTERVALS_PER_DAY);
        }
        // every interior node has 4 outgoing
        let interior = 4 + 1; // r=1,c=1
        assert_eq!(net.outgoing(interior).len(), 4);
    }

    #[test]
    fn rush_hour_slows_traffic() {
        let net = RoadNetwork::grid(3, 3, 100.0);
        let s = &net.segments[0];
        let free = s.speed_at(3.0);
        let rush = s.speed_at(8.0);
        assert!(
            rush < free * 0.75,
            "8am {rush} should be well below free-flow {free}"
        );
        let evening = s.speed_at(17.5);
        assert!(evening < free * 0.75);
    }

    #[test]
    fn projection_and_nearest() {
        let net = RoadNetwork::grid(3, 3, 100.0);
        // a point 10 m north of the segment from node 0 to node 1
        let p = Point { x: 50.0, y: 10.0 };
        let seg = net
            .segments
            .iter()
            .find(|s| s.from == 0 && s.to == 1)
            .unwrap();
        let (proj, d) = net.project_on_segment(seg, &p);
        assert!((proj.x - 50.0).abs() < 1e-9);
        assert!((proj.y - 0.0).abs() < 1e-9);
        assert!((d - 10.0).abs() < 1e-9);
        let nearest = net.nearest_segments(&p, 4);
        assert_eq!(nearest.len(), 4);
        assert!(nearest.iter().any(|&(id, _)| id == seg.id));
        // sorted ascending
        assert!(nearest.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn interval_mapping() {
        assert_eq!(Segment::interval_of(0.0), 0);
        assert_eq!(Segment::interval_of(0.25), 1);
        assert_eq!(Segment::interval_of(23.99), 95);
        assert_eq!(Segment::interval_of(24.5), 2); // wraps
    }
}
