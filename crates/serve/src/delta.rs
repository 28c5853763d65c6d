//! The `/route/delta` wire schema: edit-list parsing, canonical edit
//! encoding for cache keys, and the prior outcome the server caches.
//!
//! A delta job is a base `/route` job plus an `edits` array. The server
//! resolves the **prior** outcome for the base job (from the in-memory
//! outcome cache, routing from scratch on a miss), applies the edits
//! through `mebl_delta::route_delta`, and answers with the same response
//! body shape as `/route` — an empty edit list therefore produces a body
//! byte-identical to the plain `/route` response for the same job.
//!
//! Edit objects are strict: unknown keys are rejected, because the cache
//! key is derived from the *parsed* edits (via [`canonical_edits`]) and a
//! silently-dropped field would alias distinct requests onto one entry.

use crate::api::JobRequest;
use crate::json::Json;
use mebl_delta::CircuitEdit;
use mebl_geom::{Layer, Point, Rect};
use mebl_netlist::{Circuit, Pin};
use mebl_route::RoutingOutcome;
use std::sync::Arc;

/// A parsed `/route/delta` payload: the base routing job plus the edit
/// list to apply against its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRequest {
    /// The base `/route` job the edits apply to.
    pub job: JobRequest,
    /// The parsed edit sequence (possibly empty).
    pub edits: Vec<CircuitEdit>,
}

impl DeltaRequest {
    /// Parses a delta payload: every `/route` field plus `edits`.
    pub fn from_json(value: &Json) -> Result<DeltaRequest, String> {
        let Json::Obj(pairs) = value else {
            return Err("payload must be a JSON object".into());
        };
        let mut edits = Vec::new();
        let mut base = Vec::new();
        for (key, v) in pairs {
            if key == "edits" {
                edits = edits_from_json(v)?;
            } else {
                base.push((key.clone(), v.clone()));
            }
        }
        let job = JobRequest::from_json(&Json::Obj(base))?;
        Ok(DeltaRequest { job, edits })
    }
}

/// Parses an `edits` JSON array into typed [`CircuitEdit`]s.
///
/// The vocabulary (one object per edit, discriminated by `op`):
///
/// ```json
/// {"op":"add_net","name":"n9","pins":[[2,30,0],[70,30,0]]}
/// {"op":"remove_net","name":"n9"}
/// {"op":"move_net","name":"n9","dx":3,"dy":-1}
/// {"op":"add_blockage","rect":[10,10,20,20]}
/// {"op":"remove_blockage","rect":[10,10,20,20]}
/// ```
pub fn edits_from_json(value: &Json) -> Result<Vec<CircuitEdit>, String> {
    let Json::Arr(items) = value else {
        return Err("`edits` must be an array".into());
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| edit_from_json(item).map_err(|e| format!("edits[{i}]: {e}")))
        .collect()
}

fn edit_from_json(value: &Json) -> Result<CircuitEdit, String> {
    let Json::Obj(pairs) = value else {
        return Err("each edit must be a JSON object".into());
    };
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    let allowed: &[&str] = match op {
        "add_net" => &["op", "name", "pins"],
        "remove_net" => &["op", "name"],
        "move_net" => &["op", "name", "dx", "dy"],
        "add_blockage" | "remove_blockage" => &["op", "rect"],
        other => return Err(format!("unknown op `{other}`")),
    };
    if let Some((key, _)) = pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        return Err(format!("unknown field `{key}` for op `{op}`"));
    }
    let name = || -> Result<String, String> {
        Ok(value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing string field `name`")?
            .to_string())
    };
    match op {
        "add_net" => {
            let pins = value
                .get("pins")
                .and_then(Json::as_array)
                .ok_or("missing array field `pins`")?
                .iter()
                .map(pin_from_json)
                .collect::<Result<Vec<Pin>, String>>()?;
            Ok(CircuitEdit::AddNet { name: name()?, pins })
        }
        "remove_net" => Ok(CircuitEdit::RemoveNet { name: name()? }),
        "move_net" => Ok(CircuitEdit::MoveNet {
            name: name()?,
            dx: coord(value, "dx")?,
            dy: coord(value, "dy")?,
        }),
        "add_blockage" => Ok(CircuitEdit::AddBlockage {
            rect: rect_from_json(value)?,
        }),
        _ => Ok(CircuitEdit::RemoveBlockage {
            rect: rect_from_json(value)?,
        }),
    }
}

fn coord(value: &Json, key: &str) -> Result<i32, String> {
    let v = value
        .get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("missing integer field `{key}`"))?;
    i32::try_from(v).map_err(|_| format!("`{key}` out of range"))
}

fn pin_from_json(value: &Json) -> Result<Pin, String> {
    let parts = value
        .as_array()
        .filter(|a| a.len() == 3)
        .ok_or("each pin must be an [x, y, layer] triple")?;
    let at = |i: usize| -> Result<i64, String> {
        parts[i]
            .as_i64()
            .ok_or_else(|| "pin coordinates must be integers".to_string())
    };
    let x = i32::try_from(at(0)?).map_err(|_| "pin x out of range".to_string())?;
    let y = i32::try_from(at(1)?).map_err(|_| "pin y out of range".to_string())?;
    let layer = u8::try_from(at(2)?).map_err(|_| "pin layer out of range".to_string())?;
    Ok(Pin::new(Point::new(x, y), Layer::new(layer)))
}

fn rect_from_json(value: &Json) -> Result<Rect, String> {
    let parts = value
        .get("rect")
        .and_then(Json::as_array)
        .filter(|a| a.len() == 4)
        .ok_or("missing [x0, y0, x1, y1] field `rect`")?;
    let mut c = [0i32; 4];
    for (i, part) in parts.iter().enumerate() {
        let v = part
            .as_i64()
            .ok_or_else(|| "rect coordinates must be integers".to_string())?;
        c[i] = i32::try_from(v).map_err(|_| "rect coordinate out of range".to_string())?;
    }
    Ok(Rect::new(c[0], c[1], c[2], c[3]))
}

/// Canonical, injective text rendering of an edit list, chained into the
/// delta cache key. Stable across processes (no Debug formatting); name
/// lengths are encoded so adjacent fields cannot alias.
pub fn canonical_edits(edits: &[CircuitEdit]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for edit in edits {
        match edit {
            CircuitEdit::AddNet { name, pins } => {
                let _ = write!(out, "add:{}:{name}@", name.len());
                for pin in pins {
                    let _ = write!(
                        out,
                        "{},{},{};",
                        pin.position.x,
                        pin.position.y,
                        pin.layer.index()
                    );
                }
            }
            CircuitEdit::RemoveNet { name } => {
                let _ = write!(out, "del:{}:{name}", name.len());
            }
            CircuitEdit::MoveNet { name, dx, dy } => {
                let _ = write!(out, "mov:{}:{name}@{dx},{dy}", name.len());
            }
            CircuitEdit::AddBlockage { rect } => {
                let _ = write!(
                    out,
                    "blk+:{},{},{},{}",
                    rect.x0(),
                    rect.y0(),
                    rect.x1(),
                    rect.y1()
                );
            }
            CircuitEdit::RemoveBlockage { rect } => {
                let _ = write!(
                    out,
                    "blk-:{},{},{},{}",
                    rect.x0(),
                    rect.y0(),
                    rect.x1(),
                    rect.y1()
                );
            }
        }
        out.push('|');
    }
    out
}

/// A prior routing solution a delta job patches against: the base
/// circuit and its full outcome, shared across worker threads.
pub type PriorOutcome = Arc<(Circuit, RoutingOutcome)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn edits(text: &str) -> Result<Vec<CircuitEdit>, String> {
        edits_from_json(&parse(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn parses_every_op() {
        let parsed = edits(
            r#"[
                {"op":"add_net","name":"n9","pins":[[2,30,0],[70,30,1]]},
                {"op":"remove_net","name":"n8"},
                {"op":"move_net","name":"n7","dx":3,"dy":-1},
                {"op":"add_blockage","rect":[10,10,20,20]},
                {"op":"remove_blockage","rect":[10,10,20,20]}
            ]"#,
        )
        .unwrap();
        assert_eq!(parsed.len(), 5);
        assert_eq!(
            parsed[0],
            CircuitEdit::AddNet {
                name: "n9".into(),
                pins: vec![
                    Pin::new(Point::new(2, 30), Layer::new(0)),
                    Pin::new(Point::new(70, 30), Layer::new(1)),
                ],
            }
        );
        assert_eq!(parsed[2], CircuitEdit::MoveNet { name: "n7".into(), dx: 3, dy: -1 });
        assert_eq!(
            parsed[4],
            CircuitEdit::RemoveBlockage { rect: Rect::new(10, 10, 20, 20) }
        );
    }

    #[test]
    fn rejects_malformed_edits() {
        assert!(edits(r#"{"op":"remove_net"}"#).is_err()); // not an array
        assert!(edits(r#"[{"name":"x"}]"#).is_err()); // no op
        assert!(edits(r#"[{"op":"teleport_net","name":"x"}]"#).is_err());
        assert!(edits(r#"[{"op":"remove_net","name":"x","rect":[1,2,3,4]}]"#).is_err());
        assert!(edits(r#"[{"op":"add_net","name":"x","pins":[[1,2]]}]"#).is_err());
        assert!(edits(r#"[{"op":"move_net","name":"x","dx":1}]"#).is_err()); // no dy
        assert!(edits(r#"[{"op":"add_blockage","rect":[1,2,3]}]"#).is_err());
        let err = edits(r#"[{"op":"remove_net","name":"x"},{"op":"nope"}]"#).unwrap_err();
        assert!(err.starts_with("edits[1]:"), "{err}");
    }

    #[test]
    fn delta_request_wraps_job_request() {
        let doc = parse(r#"{"bench":"S5378","edits":[{"op":"remove_net","name":"n1"}]}"#).unwrap();
        let req = DeltaRequest::from_json(&doc).unwrap();
        assert_eq!(req.job.bench.as_deref(), Some("S5378"));
        assert_eq!(req.edits.len(), 1);
        // Base-job strictness still applies.
        let doc = parse(r#"{"bench":"S5378","edits":[],"mystery":1}"#).unwrap();
        assert!(DeltaRequest::from_json(&doc).is_err());
    }

    #[test]
    fn canonical_encoding_distinguishes_edit_lists() {
        let a = edits(r#"[{"op":"remove_net","name":"ab"}]"#).unwrap();
        let b = edits(r#"[{"op":"remove_net","name":"a"},{"op":"remove_net","name":"b"}]"#).unwrap();
        let c = edits(r#"[{"op":"move_net","name":"ab","dx":0,"dy":0}]"#).unwrap();
        assert_ne!(canonical_edits(&a), canonical_edits(&b));
        assert_ne!(canonical_edits(&a), canonical_edits(&c));
        assert_eq!(canonical_edits(&[]), "");
    }

    #[test]
    fn outcome_cache_evicts_lru() {
        use crate::cache::Lru;
        use mebl_route::{Router, RouterConfig};
        let circuit = mebl_netlist::BenchmarkSpec::by_name("S5378")
            .unwrap()
            .generate(&mebl_netlist::GenerateConfig::quick(1));
        let outcome = Router::new(RouterConfig::stitch_aware()).route(&circuit);
        let prior: PriorOutcome = Arc::new((circuit, outcome));
        let cache = Lru::new(2);
        assert_eq!(cache.len(), 0);
        cache.put(1, prior.clone());
        cache.put(2, prior.clone());
        cache.get(1); // refresh 1; 2 becomes LRU
        cache.put(3, prior.clone());
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        let disabled = Lru::new(0);
        disabled.put(1, prior);
        assert!(disabled.get(1).is_none());
    }
}
