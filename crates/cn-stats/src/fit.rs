//! Shared fitting error type and convenience fitting helpers.

use crate::dist::{Dist, Exponential, Gamma, LogNormal, Pareto, Tcplib, Weibull};
use serde::{Deserialize, Serialize};

/// Why a maximum-likelihood fit could not be produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// No samples were provided.
    Empty,
    /// A sample was non-finite or outside the distribution's support.
    InvalidSample,
    /// The samples are degenerate for this family (e.g. all identical).
    Degenerate(String),
    /// An iterative fit failed to converge.
    DidNotConverge,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Empty => write!(f, "no samples"),
            FitError::InvalidSample => write!(f, "invalid sample value"),
            FitError::Degenerate(msg) => write!(f, "degenerate samples: {msg}"),
            FitError::DidNotConverge => write!(f, "iterative fit did not converge"),
        }
    }
}

impl std::error::Error for FitError {}

/// The parametric families the paper evaluates in §4 and Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Exponential inter-arrival (Poisson process).
    Poisson,
    /// Pareto power law.
    Pareto,
    /// Weibull.
    Weibull,
    /// Log-normal.
    LogNormal,
    /// Gamma.
    Gamma,
    /// Tcplib empirical scale family.
    Tcplib,
}

impl Family {
    /// The four families tested in the paper's Tables 8–10, in table order.
    #[cfg(test)]
    const PAPER_TABLE: [Family; 4] = [
        Family::Poisson,
        Family::Pareto,
        Family::Weibull,
        Family::Tcplib,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Poisson => "Poisson",
            Family::Pareto => "Pareto",
            Family::Weibull => "Weibull",
            Family::LogNormal => "LogNormal",
            Family::Gamma => "Gamma",
            Family::Tcplib => "Tcplib",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fit one family to the samples via maximum likelihood.
pub fn fit_family(family: Family, samples: &[f64]) -> Result<Dist, FitError> {
    match family {
        Family::Poisson => Exponential::fit(samples).map(Dist::Exponential),
        Family::Pareto => Pareto::fit(samples).map(Dist::Pareto),
        Family::Weibull => {
            // Weibull's log-likelihood needs strictly positive samples; the
            // paper's millisecond timestamps can yield zero durations, which
            // we drop here (they carry no shape information for Weibull).
            let positive: Vec<f64> = samples.iter().copied().filter(|&x| x > 0.0).collect();
            Weibull::fit(&positive).map(Dist::Weibull)
        }
        Family::LogNormal => {
            let positive: Vec<f64> = samples.iter().copied().filter(|&x| x > 0.0).collect();
            LogNormal::fit(&positive).map(Dist::LogNormal)
        }
        Family::Gamma => {
            let positive: Vec<f64> = samples.iter().copied().filter(|&x| x > 0.0).collect();
            Gamma::fit(&positive).map(Dist::Gamma)
        }
        Family::Tcplib => Tcplib::fit(samples).map(Dist::Tcplib),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fit_family_dispatches() {
        let mut rng = StdRng::seed_from_u64(4);
        let exp = Exponential::new(1.0).unwrap();
        let samples: Vec<f64> = (0..5_000).map(|_| exp.sample(&mut rng)).collect();
        for family in Family::PAPER_TABLE {
            let d = fit_family(family, &samples).unwrap();
            assert_eq!(
                std::mem::discriminant(&d),
                std::mem::discriminant(&match family {
                    Family::Poisson => Dist::Exponential(Exponential::new(1.0).unwrap()),
                    Family::Pareto => Dist::Pareto(Pareto::new(1.0, 1.0).unwrap()),
                    Family::Weibull => Dist::Weibull(Weibull::new(1.0, 1.0).unwrap()),
                    Family::LogNormal => Dist::LogNormal(LogNormal::new(0.0, 1.0).unwrap()),
                    Family::Gamma => Dist::Gamma(Gamma::new(1.0, 1.0).unwrap()),
                    Family::Tcplib => Dist::Tcplib(Tcplib::new(1.0).unwrap()),
                })
            );
        }
    }

    #[test]
    fn gamma_family_fits() {
        let mut rng = StdRng::seed_from_u64(6);
        let truth = Gamma::new(2.0, 3.0).unwrap();
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let d = fit_family(Family::Gamma, &samples).unwrap();
        assert_eq!(d.family(), "Gamma");
        assert!((d.mean() - 6.0).abs() / 6.0 < 0.05, "{}", d.mean());
    }

    #[test]
    fn weibull_fit_tolerates_zeros() {
        let samples = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(fit_family(Family::Weibull, &samples).is_ok());
    }

    #[test]
    fn family_names() {
        assert_eq!(Family::Poisson.to_string(), "Poisson");
        assert_eq!(Family::PAPER_TABLE.len(), 4);
    }

    #[test]
    fn error_display() {
        assert_eq!(FitError::Empty.to_string(), "no samples");
        assert!(FitError::Degenerate("x".into()).to_string().contains("x"));
    }
}
