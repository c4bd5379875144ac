//! The newline-delimited JSON request protocol.
//!
//! One request per line, one response per line. Every request is an object
//! with a `"cmd"` field; every response is an object with `"ok"` —
//! `true` plus the payload, or `false` plus `"code"` and `"error"`. A line
//! may hold at most [`crate::MAX_REQUEST_BYTES`] bytes, newline included;
//! a longer one, or one that is not UTF-8, answers `bad_request`, and the
//! over-long one also closes the connection.
//!
//! ```text
//! request  := { "cmd": <endpoint>, ...args } "\n"
//! response := { "ok": true, ...payload } "\n"
//!           | { "ok": false, "code": <error-code>, "error": <message> } "\n"
//!
//! endpoint := "register_design" | "lint_design" | "analyze_path"
//!           | "worst_paths" | "quantile" | "yield_design" | "eco_resize"
//!           | "stats" | "shutdown"
//! error-code := "bad_request" | "not_found" | "unknown_cell"
//!             | "overloaded" | "deadline" | "lint_failed" | "internal"
//! ```
//!
//! `unknown_cell` is the wire form of
//! [`nsigma_core::QueryError::UnknownCell`]: the design references a cell
//! the server's timer holds no calibration for. The other query errors map
//! onto `bad_request` (empty design, unknown strength) and `not_found`
//! (unknown gate, path rank past the ranked-path count).
//!
//! `yield_design` runs the Monte-Carlo yield engine of `nsigma-yield`
//! against a registered design: `"target_period"` (seconds; defaults to
//! the analytic +3σ quantile), `"ci"` (95 % half-width target, default
//! 0.005), `"importance"` (boolean, default `false` — enables the
//! mean-shifted sampler), `"samples"` (hard cap, default 65536, at most
//! [`MAX_YIELD_SAMPLES`]) and `"seed"`.
//!
//! `register_design` lints the generated design before admitting it and
//! answers `lint_failed` (listing the offending diagnostic codes) when
//! error-severity findings exist; passing `"lint": false` restores the
//! unchecked behavior.

use crate::json::{self, Value};

/// The largest `"samples"` cap a `yield_design` request may ask for, 16×
/// the 65 536 default. The run keeps every trial's delay and weight and
/// holds the design's read lock throughout, so a larger cap is rejected
/// rather than letting one request grow memory and block `eco_resize`
/// without limit.
pub const MAX_YIELD_SAMPLES: usize = 1 << 20;

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Generate and register a design under `name`.
    RegisterDesign {
        /// Store key for subsequent queries.
        name: String,
        /// Generation recipe.
        generator: Generator,
        /// Parasitic-generation seed.
        seed: u64,
        /// Whether to lint before admitting the design (default `true`).
        lint: bool,
    },
    /// Lint a registered design and return its diagnostics.
    LintDesign {
        /// Design name.
        design: String,
    },
    /// Analyze the nominal critical path of a registered design.
    AnalyzePath {
        /// Design name.
        design: String,
    },
    /// The `k` worst paths with full N-sigma quantiles.
    WorstPaths {
        /// Design name.
        design: String,
        /// How many paths.
        k: usize,
    },
    /// Delay quantile of the `path`-th worst path at a (possibly
    /// fractional) sigma level.
    Quantile {
        /// Design name.
        design: String,
        /// Zero-based rank into the worst-path ordering.
        path: usize,
        /// Sigma level, e.g. `4.5`; integer levels in `[-3, 3]` are exact
        /// Table I outputs, others interpolate the yield curve.
        sigma: f64,
    },
    /// Monte-Carlo timing yield of a registered design.
    YieldDesign {
        /// Design name.
        design: String,
        /// Clock period (s) to estimate yield at; `None` targets the
        /// analytic +3σ quantile.
        target_period: Option<f64>,
        /// Requested 95 % confidence half-width on the yield.
        ci: f64,
        /// Use the mean-shifted importance sampler.
        importance: bool,
        /// Hard sample cap.
        samples: usize,
        /// Master RNG seed.
        seed: u64,
    },
    /// Resize a gate through the incremental timer.
    EcoResize {
        /// Design name.
        design: String,
        /// Gate instance name.
        gate: String,
        /// New drive strength (same cell kind).
        strength: u32,
    },
    /// Server observability snapshot.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight work.
    Shutdown,
}

/// How `register_design` builds its netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum Generator {
    /// A named ISCAS85-style benchmark (`"c432"` … `"c7552"`).
    Iscas(String),
    /// Client-supplied `.bench` netlist text (may contain structural
    /// defects; that is what the lint gate is for).
    Bench(String),
    /// A layered random DAG with explicit dimensions.
    Synthetic {
        /// Gate count.
        gates: usize,
        /// Primary inputs.
        inputs: usize,
        /// Primary outputs.
        outputs: usize,
        /// Logic depth.
        depth: usize,
        /// Topology seed.
        seed: u64,
    },
}

impl Request {
    /// The endpoint name used for metrics and routing.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::RegisterDesign { .. } => "register_design",
            Request::LintDesign { .. } => "lint_design",
            Request::AnalyzePath { .. } => "analyze_path",
            Request::WorstPaths { .. } => "worst_paths",
            Request::Quantile { .. } => "quantile",
            Request::YieldDesign { .. } => "yield_design",
            Request::EcoResize { .. } => "eco_resize",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Request-parse failure; rendered into a `bad_request` response.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was not valid JSON.
    Json(String),
    /// The JSON was not an object with a string `"cmd"`.
    MissingCmd,
    /// Unknown endpoint.
    UnknownCmd(String),
    /// A required field is absent or has the wrong type.
    BadField(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "{e}"),
            ProtoError::MissingCmd => write!(f, "request must be an object with a string \"cmd\""),
            ProtoError::UnknownCmd(c) => write!(f, "unknown cmd {c:?}"),
            ProtoError::BadField(k) => write!(f, "missing or invalid field {k:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn str_field(v: &Value, key: &'static str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(ProtoError::BadField(key))
}

fn usize_field(v: &Value, key: &'static str, default: Option<usize>) -> Result<usize, ProtoError> {
    match v.get(key) {
        None => default.ok_or(ProtoError::BadField(key)),
        Some(f) => f
            .as_u64()
            .map(|n| n as usize)
            .ok_or(ProtoError::BadField(key)),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ProtoError`] on malformed JSON, a missing/unknown `cmd`, or a
/// missing/mistyped argument.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError::Json(e.to_string()))?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or(ProtoError::MissingCmd)?;
    match cmd {
        "register_design" => {
            let name = str_field(&v, "name")?;
            let seed = v
                .get("seed")
                .map(|s| s.as_u64().ok_or(ProtoError::BadField("seed")))
                .transpose()?
                .unwrap_or(1);
            let lint = match v.get("lint") {
                None => true,
                Some(f) => f.as_bool().ok_or(ProtoError::BadField("lint"))?,
            };
            let generator = if let Some(iscas) = v.get("iscas") {
                Generator::Iscas(
                    iscas
                        .as_str()
                        .ok_or(ProtoError::BadField("iscas"))?
                        .to_string(),
                )
            } else if let Some(bench) = v.get("bench") {
                Generator::Bench(
                    bench
                        .as_str()
                        .ok_or(ProtoError::BadField("bench"))?
                        .to_string(),
                )
            } else {
                Generator::Synthetic {
                    gates: usize_field(&v, "gates", None)?,
                    inputs: usize_field(&v, "inputs", None)?,
                    outputs: usize_field(&v, "outputs", None)?,
                    depth: usize_field(&v, "depth", None)?,
                    seed,
                }
            };
            Ok(Request::RegisterDesign {
                name,
                generator,
                seed,
                lint,
            })
        }
        "lint_design" => Ok(Request::LintDesign {
            design: str_field(&v, "design")?,
        }),
        "analyze_path" => Ok(Request::AnalyzePath {
            design: str_field(&v, "design")?,
        }),
        "worst_paths" => Ok(Request::WorstPaths {
            design: str_field(&v, "design")?,
            k: usize_field(&v, "k", Some(1))?,
        }),
        "quantile" => Ok(Request::Quantile {
            design: str_field(&v, "design")?,
            path: usize_field(&v, "path", Some(0))?,
            sigma: v
                .get("sigma")
                .and_then(Value::as_f64)
                .filter(|s| s.is_finite())
                .ok_or(ProtoError::BadField("sigma"))?,
        }),
        "yield_design" => {
            let target_period = v
                .get("target_period")
                .map(|f| {
                    f.as_f64()
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .ok_or(ProtoError::BadField("target_period"))
                })
                .transpose()?;
            let ci = match v.get("ci") {
                None => 0.005,
                Some(f) => f
                    .as_f64()
                    .filter(|c| c.is_finite() && *c > 0.0)
                    .ok_or(ProtoError::BadField("ci"))?,
            };
            let importance = match v.get("importance") {
                None => false,
                Some(f) => f.as_bool().ok_or(ProtoError::BadField("importance"))?,
            };
            let seed = v
                .get("seed")
                .map(|s| s.as_u64().ok_or(ProtoError::BadField("seed")))
                .transpose()?
                .unwrap_or(0x11E1D);
            let samples = usize_field(&v, "samples", Some(65_536))?;
            if samples > MAX_YIELD_SAMPLES {
                return Err(ProtoError::BadField("samples"));
            }
            Ok(Request::YieldDesign {
                design: str_field(&v, "design")?,
                target_period,
                ci,
                importance,
                samples,
                seed,
            })
        }
        "eco_resize" => {
            let strength = usize_field(&v, "strength", None)?;
            if strength == 0 || strength > u32::MAX as usize {
                return Err(ProtoError::BadField("strength"));
            }
            Ok(Request::EcoResize {
                design: str_field(&v, "design")?,
                gate: str_field(&v, "gate")?,
                strength: strength as u32,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::UnknownCmd(other.to_string())),
    }
}

/// Serializes a success response with the given payload fields.
pub fn ok_response(payload: Vec<(&str, Value)>) -> String {
    let mut fields = vec![("ok", Value::Bool(true))];
    fields.extend(payload);
    json::write(&json::obj(fields))
}

/// Serializes an error response.
pub fn error_response(code: &str, message: &str) -> String {
    json::write(&json::obj(vec![
        ("ok", Value::Bool(false)),
        ("code", Value::Str(code.to_string())),
        ("error", Value::Str(message.to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_endpoint() {
        assert_eq!(
            parse_request(r#"{"cmd":"analyze_path","design":"c432"}"#).unwrap(),
            Request::AnalyzePath {
                design: "c432".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"worst_paths","design":"d","k":5}"#).unwrap(),
            Request::WorstPaths {
                design: "d".into(),
                k: 5
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"quantile","design":"d","path":1,"sigma":4.5}"#).unwrap(),
            Request::Quantile {
                design: "d".into(),
                path: 1,
                sigma: 4.5
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"eco_resize","design":"d","gate":"g7","strength":8}"#).unwrap(),
            Request::EcoResize {
                design: "d".into(),
                gate: "g7".into(),
                strength: 8
            }
        );
        assert_eq!(
            parse_request(
                r#"{"cmd":"yield_design","design":"d","target_period":2.5e-10,"ci":0.01,"importance":true,"samples":2048,"seed":7}"#
            )
            .unwrap(),
            Request::YieldDesign {
                design: "d".into(),
                target_period: Some(2.5e-10),
                ci: 0.01,
                importance: true,
                samples: 2048,
                seed: 7
            }
        );
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn register_design_variants() {
        let iscas =
            parse_request(r#"{"cmd":"register_design","name":"a","iscas":"c432"}"#).unwrap();
        assert_eq!(
            iscas,
            Request::RegisterDesign {
                name: "a".into(),
                generator: Generator::Iscas("c432".into()),
                seed: 1,
                lint: true
            }
        );
        let synth = parse_request(
            r#"{"cmd":"register_design","name":"b","gates":60,"inputs":6,"outputs":3,"depth":8,"seed":9}"#,
        )
        .unwrap();
        assert_eq!(
            synth,
            Request::RegisterDesign {
                name: "b".into(),
                generator: Generator::Synthetic {
                    gates: 60,
                    inputs: 6,
                    outputs: 3,
                    depth: 8,
                    seed: 9
                },
                seed: 9,
                lint: true
            }
        );
        let bench = parse_request(
            r#"{"cmd":"register_design","name":"c","bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","lint":false}"#,
        )
        .unwrap();
        assert_eq!(
            bench,
            Request::RegisterDesign {
                name: "c".into(),
                generator: Generator::Bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into()),
                seed: 1,
                lint: false
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"register_design","name":"c","iscas":"c17","lint":3}"#)
                .unwrap_err(),
            ProtoError::BadField("lint")
        );
    }

    #[test]
    fn parses_lint_design() {
        assert_eq!(
            parse_request(r#"{"cmd":"lint_design","design":"d"}"#).unwrap(),
            Request::LintDesign { design: "d".into() }
        );
    }

    #[test]
    fn defaults_apply() {
        assert_eq!(
            parse_request(r#"{"cmd":"worst_paths","design":"d"}"#).unwrap(),
            Request::WorstPaths {
                design: "d".into(),
                k: 1
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"quantile","design":"d","sigma":-4}"#).unwrap(),
            Request::Quantile {
                design: "d".into(),
                path: 0,
                sigma: -4.0
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"yield_design","design":"d"}"#).unwrap(),
            Request::YieldDesign {
                design: "d".into(),
                target_period: None,
                ci: 0.005,
                importance: false,
                samples: 65_536,
                seed: 0x11E1D
            }
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        // Not JSON at all.
        assert!(matches!(
            parse_request("worst_paths please").unwrap_err(),
            ProtoError::Json(_)
        ));
        // JSON but not an object / no cmd.
        assert_eq!(parse_request("[1,2]").unwrap_err(), ProtoError::MissingCmd);
        assert_eq!(
            parse_request(r#"{"k":3}"#).unwrap_err(),
            ProtoError::MissingCmd
        );
        // Unknown endpoint.
        assert!(matches!(
            parse_request(r#"{"cmd":"frobnicate"}"#).unwrap_err(),
            ProtoError::UnknownCmd(_)
        ));
        // Missing / mistyped arguments.
        assert_eq!(
            parse_request(r#"{"cmd":"analyze_path"}"#).unwrap_err(),
            ProtoError::BadField("design")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"worst_paths","design":"d","k":-2}"#).unwrap_err(),
            ProtoError::BadField("k")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"worst_paths","design":"d","k":1.5}"#).unwrap_err(),
            ProtoError::BadField("k")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"eco_resize","design":"d","gate":"g","strength":0}"#)
                .unwrap_err(),
            ProtoError::BadField("strength")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"register_design","name":"x","gates":10}"#).unwrap_err(),
            ProtoError::BadField("inputs")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"yield_design","design":"d","ci":0}"#).unwrap_err(),
            ProtoError::BadField("ci")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"yield_design","design":"d","target_period":-1.0}"#)
                .unwrap_err(),
            ProtoError::BadField("target_period")
        );
        assert_eq!(
            parse_request(r#"{"cmd":"yield_design","design":"d","importance":"yes"}"#).unwrap_err(),
            ProtoError::BadField("importance")
        );
        // A sample cap past the ceiling is refused; the ceiling itself parses.
        let with_samples =
            |n: usize| format!(r#"{{"cmd":"yield_design","design":"d","samples":{n}}}"#);
        assert_eq!(
            parse_request(&with_samples(MAX_YIELD_SAMPLES + 1)).unwrap_err(),
            ProtoError::BadField("samples")
        );
        assert!(matches!(
            parse_request(&with_samples(MAX_YIELD_SAMPLES)).unwrap(),
            Request::YieldDesign {
                samples: MAX_YIELD_SAMPLES,
                ..
            }
        ));
    }

    #[test]
    fn responses_are_valid_json() {
        let ok = ok_response(vec![("n", Value::Num(3.0))]);
        let v = crate::json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let err = error_response("overloaded", "queue full");
        let v = crate::json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("overloaded"));
    }
}
