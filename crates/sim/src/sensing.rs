//! Synthetic spectrum sensing: from a primary-user band occupancy to
//! per-node channel sets.
//!
//! The paper's introduction motivates the model with secondary users
//! scavenging leftover spectrum in licensed bands (TV white space): a
//! cognitive radio surveys the band, identifies free fragments, and
//! presents them as abstract channels. Different nodes see different
//! conditions, hence different channel sets — but a small set of
//! database-backed *anchor* channels (in the white-space world, the
//! geolocation database every device must consult) is known-free to
//! everyone, which is what realizes the model's pairwise `k`-overlap
//! guarantee.
//!
//! [`sense_assignment`] generates exactly that workload: a random
//! primary occupancy over `bands` bands, `k` anchors guaranteed free,
//! per-node noisy sensing of the rest, and per-node channel sets of
//! size `c` built from each node's sensed-free bands.

use crate::assignment::ChannelAssignment;
use crate::error::SimError;
use crate::ids::GlobalChannel;
use crate::rng::SimRng;

/// Parameters of the synthetic spectrum environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumConfig {
    /// Total candidate bands `C` (anchors included).
    pub bands: usize,
    /// Probability that a non-anchor band is occupied by a primary
    /// user.
    pub primary_density: f64,
    /// Per-node, per-band probability of a sensing error (a flipped
    /// busy/free reading).
    pub sensing_noise: f64,
}

impl SpectrumConfig {
    /// A TV-white-space flavoured default: 60 bands, 40% primary
    /// occupancy, 5% sensing noise.
    pub fn tv_white_space() -> Self {
        SpectrumConfig {
            bands: 60,
            primary_density: 0.4,
            sensing_noise: 0.05,
        }
    }
}

/// What the sensing pass produced, alongside the assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensingReport {
    /// Ground-truth occupancy per band (anchors always free).
    pub occupied: Vec<bool>,
    /// Bands every node treats as known-free (the database anchors).
    pub anchors: Vec<GlobalChannel>,
    /// Sensing errors per node (false-free + false-busy readings).
    pub sensing_errors: Vec<usize>,
    /// Per node, how many of its selected channels are actually
    /// occupied by a primary (false-free picks — real deployments pay
    /// interference for these).
    pub interfering_picks: Vec<usize>,
}

/// Builds a `(n, c, k)` channel assignment from a synthetic sensing
/// pass over `cfg`'s spectrum.
///
/// The `k` anchor bands are chosen uniformly among the `bands` and are
/// free and correctly known to all nodes; each node fills its
/// remaining `c − k` channels from the bands it *senses* free
/// (preferring them in random order), falling back to sensed-busy
/// bands only if its free list runs short.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `bands < c`, the usual
/// `1 ≤ k ≤ c` constraint fails, or probabilities are outside
/// `[0, 1]`.
///
/// # Examples
///
/// ```
/// use crn_sim::sensing::{sense_assignment, SpectrumConfig};
/// use crn_sim::rng::SimRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let (a, report) = sense_assignment(8, 6, 2, SpectrumConfig::tv_white_space(), &mut rng)?;
/// assert_eq!(a.n(), 8);
/// assert!(a.min_pairwise_overlap() >= 2);
/// assert_eq!(report.anchors.len(), 2);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn sense_assignment(
    n: usize,
    c: usize,
    k: usize,
    cfg: SpectrumConfig,
    rng: &mut SimRng,
) -> Result<(ChannelAssignment, SensingReport), SimError> {
    if n == 0 || c == 0 || k == 0 || k > c {
        return Err(SimError::InvalidParams {
            reason: format!("need n,c >= 1 and 1 <= k <= c (n={n}, c={c}, k={k})"),
        });
    }
    if cfg.bands < c {
        return Err(SimError::InvalidParams {
            reason: format!("bands ({}) must be at least c ({c})", cfg.bands),
        });
    }
    for (name, p) in [
        ("primary_density", cfg.primary_density),
        ("sensing_noise", cfg.sensing_noise),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(SimError::InvalidParams {
                reason: format!("{name} ({p}) must be in [0, 1]"),
            });
        }
    }

    // Anchors: k database-backed, guaranteed-free bands.
    let mut band_ids: Vec<u32> = (0..cfg.bands as u32).collect();
    rng.shuffle(&mut band_ids);
    let anchors: Vec<GlobalChannel> = band_ids[..k].iter().map(|&b| GlobalChannel(b)).collect();

    // Ground truth: primaries occupy non-anchor bands.
    let mut occupied = vec![false; cfg.bands];
    for &b in &band_ids[k..] {
        occupied[b as usize] = rng.gen_bool(cfg.primary_density);
    }

    let mut sets = Vec::with_capacity(n);
    let mut sensing_errors = vec![0usize; n];
    let mut interfering_picks = vec![0usize; n];
    for node in 0..n {
        // Sense every non-anchor band, with noise.
        let mut sensed_free: Vec<u32> = Vec::new();
        let mut sensed_busy: Vec<u32> = Vec::new();
        for &b in &band_ids[k..] {
            let truth_busy = occupied[b as usize];
            let flip = cfg.sensing_noise > 0.0 && rng.gen_bool(cfg.sensing_noise);
            if flip {
                sensing_errors[node] += 1;
            }
            if truth_busy != flip {
                sensed_busy.push(b);
            } else {
                sensed_free.push(b);
            }
        }
        rng.shuffle(&mut sensed_free);
        rng.shuffle(&mut sensed_busy);
        let mut set: Vec<GlobalChannel> = anchors.clone();
        for &b in sensed_free.iter().chain(sensed_busy.iter()) {
            if set.len() == c {
                break;
            }
            set.push(GlobalChannel(b));
        }
        interfering_picks[node] = set.iter().filter(|g| occupied[g.index()]).count();
        sets.push(set);
    }

    let assignment = ChannelAssignment::from_sets(sets, cfg.bands, k)?;
    Ok((
        assignment,
        SensingReport {
            occupied,
            anchors,
            sensing_errors,
            interfering_picks,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(bands: usize, density: f64, noise: f64) -> SpectrumConfig {
        SpectrumConfig {
            bands,
            primary_density: density,
            sensing_noise: noise,
        }
    }

    #[test]
    fn produces_valid_assignment() {
        let mut rng = SimRng::seed_from_u64(3);
        let (a, r) = sense_assignment(10, 8, 3, cfg(50, 0.5, 0.1), &mut rng).unwrap();
        assert_eq!(a.n(), 10);
        assert_eq!(a.c(), 8);
        assert!(a.min_pairwise_overlap() >= 3);
        assert_eq!(r.anchors.len(), 3);
        assert_eq!(r.occupied.len(), 50);
    }

    #[test]
    fn anchors_are_free_and_in_every_set() {
        let mut rng = SimRng::seed_from_u64(5);
        let (a, r) = sense_assignment(6, 5, 2, cfg(40, 0.8, 0.2), &mut rng).unwrap();
        for anchor in &r.anchors {
            assert!(!r.occupied[anchor.index()], "anchors are never occupied");
            for node in 0..6 {
                assert!(a.channels_of(node).contains(anchor));
            }
        }
    }

    #[test]
    fn zero_noise_zero_density_picks_only_free_bands() {
        let mut rng = SimRng::seed_from_u64(7);
        let (_, r) = sense_assignment(5, 6, 2, cfg(30, 0.0, 0.0), &mut rng).unwrap();
        assert!(r.sensing_errors.iter().all(|&e| e == 0));
        assert!(r.interfering_picks.iter().all(|&i| i == 0));
    }

    #[test]
    fn perfect_sensing_avoids_primaries_when_spectrum_suffices() {
        let mut rng = SimRng::seed_from_u64(9);
        // 30% density over 60 bands leaves ~40 free ones; with c = 6
        // and no noise, nobody should pick an occupied band.
        let (_, r) = sense_assignment(8, 6, 2, cfg(60, 0.3, 0.0), &mut rng).unwrap();
        assert!(
            r.interfering_picks.iter().all(|&i| i == 0),
            "{:?}",
            r.interfering_picks
        );
    }

    #[test]
    fn noise_induces_interfering_picks() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut total = 0usize;
        for _ in 0..20 {
            let (_, r) = sense_assignment(8, 6, 1, cfg(40, 0.6, 0.4), &mut rng).unwrap();
            total += r.interfering_picks.iter().sum::<usize>();
            assert!(r.sensing_errors.iter().sum::<usize>() > 0);
        }
        assert!(total > 0, "40% sensing noise must cause some bad picks");
    }

    #[test]
    fn crowded_spectrum_still_meets_the_invariant() {
        let mut rng = SimRng::seed_from_u64(13);
        // Almost everything occupied: nodes must fall back to busy
        // bands, but the k-overlap (anchors) still holds.
        let (a, _) = sense_assignment(12, 10, 2, cfg(20, 0.95, 0.0), &mut rng).unwrap();
        assert!(a.validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        assert!(sense_assignment(0, 4, 2, cfg(10, 0.1, 0.1), &mut rng).is_err());
        assert!(sense_assignment(3, 4, 0, cfg(10, 0.1, 0.1), &mut rng).is_err());
        assert!(sense_assignment(3, 4, 5, cfg(10, 0.1, 0.1), &mut rng).is_err());
        assert!(sense_assignment(3, 12, 2, cfg(10, 0.1, 0.1), &mut rng).is_err());
        assert!(sense_assignment(3, 4, 2, cfg(10, 1.5, 0.1), &mut rng).is_err());
        assert!(sense_assignment(3, 4, 2, cfg(10, 0.1, -0.1), &mut rng).is_err());
    }

    proptest! {
        #[test]
        fn prop_sensed_assignments_valid(
            n in 1usize..12,
            c in 1usize..8,
            k_off in 0usize..8,
            density in 0.0f64..1.0,
            noise in 0.0f64..0.5,
            seed in 0u64..200,
        ) {
            let k = 1 + k_off % c;
            let mut rng = SimRng::seed_from_u64(seed);
            let bands = c * 4 + 8;
            let (a, r) = sense_assignment(n, c, k, cfg(bands, density, noise), &mut rng).unwrap();
            prop_assert!(a.validate().is_ok());
            prop_assert!(a.min_pairwise_overlap() >= k);
            prop_assert_eq!(r.anchors.len(), k);
            prop_assert_eq!(r.interfering_picks.len(), n);
        }
    }
}
