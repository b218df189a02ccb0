//! Reading answers back out of the programs' text output, and the
//! checks every output must pass.

use crate::workload::{Request, Tool};

/// The numbers of one optimize answer, as printed by the CLI and in the
/// daemon's `output` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub t_soc: u64,
    pub t_in: u64,
    pub t_si: u64,
    pub wires: u32,
    pub degraded: bool,
}

/// The first run of digits after `key`.
fn number_after<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses `architecture (R rails, W wires):` and
/// `T_soc = T cc  (T_in = A, T_si = B)` out of an optimize report.
pub fn parse_optimize(text: &str) -> Option<Answer> {
    let arch = &text[text.find("architecture (")?..];
    let wires = number_after(&arch[arch.find("rails,")?..], "rails,")?;
    Some(Answer {
        t_soc: number_after(text, "T_soc =")?,
        t_in: number_after(text, "T_in =")?,
        t_si: number_after(text, "T_si =")?,
        wires,
        degraded: text.contains("(degraded)"),
    })
}

/// The checks that need nothing but the output itself: it parses, its
/// times add up, it respects the width budget, and it is a converged
/// (not budget-degraded) answer.
pub fn check_output(request: &Request, text: &str) -> Result<(), String> {
    match request.tool {
        Tool::Optimize { width, .. } => {
            let a = parse_optimize(text)
                .ok_or_else(|| format!("{}: unparsable optimize output", request.label()))?;
            if a.t_soc != a.t_in + a.t_si {
                return Err(format!("{}: T_soc != T_in + T_si", request.label()));
            }
            if a.wires > width {
                return Err(format!(
                    "{}: {} wires exceed W_max {width}",
                    request.label(),
                    a.wires
                ));
            }
            if a.degraded {
                return Err(format!("{}: degraded answer", request.label()));
            }
            Ok(())
        }
        Tool::Table { .. } => {
            // A header line, a column line and one row per width.
            let rows = text.lines().count().saturating_sub(2);
            if !text.starts_with(&format!("SOC {} ", request.soc.name())) || rows != 8 {
                return Err(format!("{}: malformed table output", request.label()));
            }
            Ok(())
        }
    }
}

/// FxHash-style 64-bit digest of outputs, printed to show that outputs
/// did not change across commits.
#[derive(Clone, Copy, Debug, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, text: &str) {
        for chunk in text.as_bytes().chunks(8).chain([&[0xffu8][..]]) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mode;
    use soctam::Benchmark;

    const REPORT: &str = "d695: N_r=2000 -> 78 compacted patterns in 5 groups\n\
        architecture (3 rails, 16 wires):\n  TAM0: rail[w=3] {core#1, core#9}\n\n\
        T_soc = 56790 cc  (T_in = 45284, T_si = 11506)\nTAM0  [w= 3] |####\n";

    fn request(width: u32) -> Request {
        Request {
            soc: Benchmark::D695,
            tool: Tool::Optimize {
                patterns: 2_000,
                width,
                partitions: 4,
                baseline: false,
            },
            seed: 1,
            mode: Mode::Sync,
        }
    }

    #[test]
    fn parses_an_optimize_report() {
        assert_eq!(
            parse_optimize(REPORT),
            Some(Answer {
                t_soc: 56_790,
                t_in: 45_284,
                t_si: 11_506,
                wires: 16,
                degraded: false,
            })
        );
        assert_eq!(parse_optimize("no report here"), None);
    }

    #[test]
    fn output_checks_catch_bad_answers() {
        assert!(check_output(&request(16), REPORT).is_ok());
        assert!(check_output(&request(8), REPORT)
            .unwrap_err()
            .contains("exceed"));
        let wrong_sum = REPORT.replace("T_si = 11506", "T_si = 11505");
        assert!(check_output(&request(16), &wrong_sum).is_err());
        let degraded = format!("note: ... found so far (degraded)\n{REPORT}");
        assert!(check_output(&request(16), &degraded).is_err());
    }

    #[test]
    fn digest_separates_outputs_and_boundaries() {
        let digest = |parts: &[&str]| {
            let mut d = Digest::default();
            parts.iter().for_each(|p| d.add(p));
            d.hex()
        };
        assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
        assert_ne!(digest(&["a", "b"]), digest(&["ab"]));
        assert_ne!(digest(&["a"]), digest(&["b"]));
    }
}
