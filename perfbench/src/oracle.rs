//! The correctness oracle: the bytes the server must have sent, computed
//! in process by a separate engine over the same XML with the same wire
//! encoder. Run after the timed phase, so the served engine's caches are
//! never warmed by the check.

use lotusx::LotusX;
use lotusx_serve::wire;
use std::collections::{HashMap, HashSet};

/// The exact body the server answers `body` with on a tenant whose
/// engine is `engine`, or `None` for a request it must reject. Query
/// bodies carry `text`; completion bodies never do.
pub fn expected(engine: &LotusX, body: &str) -> Option<String> {
    let v = lotusx_obs::parse_json(body).ok()?;
    if v.get("text").is_some() {
        let request = wire::decode_query(&v).ok()?;
        return engine
            .query(&request)
            .ok()
            .map(|r| wire::encode_response(&r));
    }
    let completion = engine.completion_engine();
    Some(match wire::decode_complete(&v).ok()? {
        wire::CompleteRequest::Tag { context, prefix, k } => {
            wire::encode_tag_candidates(&completion.complete_tag(&context, &prefix, k))
        }
        wire::CompleteRequest::Value { tag, prefix, k } => {
            wire::encode_value_candidates(&completion.complete_value(&tag, &prefix, k))
        }
    })
}

/// Compares every distinct served body with the oracle's, on `threads`
/// threads. Returns the requests whose bytes differ.
pub fn check(
    engines: &[LotusX],
    served: &HashMap<(usize, String), Vec<u8>>,
    threads: usize,
) -> HashSet<(usize, String)> {
    let items: Vec<(&(usize, String), &Vec<u8>)> = served.iter().collect();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|((tenant, body), got)| {
                            expected(&engines[*tenant], body).map(String::into_bytes)
                                != Some((*got).clone())
                        })
                        .map(|(key, _)| (*key).clone())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_queries_and_completions_and_catches_a_wrong_byte() {
        let engine = LotusX::load_str(
            "<bib><book><title>xml data</title><author>lee</author></book>\
             <book><title>xml trees</title></book></bib>",
        )
        .unwrap();
        let q = r#"{"text":"//book/title","top_k":10,"algorithm":"auto"}"#;
        let k = r#"{"text":"xml","kind":"keyword","top_k":10}"#;
        let t = r#"{"kind":"tag","prefix":"t","k":10,"context":{"steps":[{"tag":"bib","axis":"child"},{"tag":"book","axis":"child"}],"axis":"child"}}"#;
        let v = r#"{"kind":"value","tag":"title","prefix":"x","k":10}"#;
        let mut served = HashMap::new();
        for body in [q, k, t, v] {
            let bytes = expected(&engine, body).expect("valid request").into_bytes();
            served.insert((0, body.to_string()), bytes);
        }
        assert!(expected(&engine, t).unwrap().contains("\"title\""));
        assert!(expected(&engine, v).unwrap().contains("\"xml\""));
        let engines = [engine];
        assert!(check(&engines, &served, 2).is_empty());
        served.get_mut(&(0, q.to_string())).unwrap()[3] ^= 1;
        let bad = check(&engines, &served, 2);
        assert_eq!(bad.len(), 1);
        assert!(bad.contains(&(0, q.to_string())));
        assert!(expected(&engines[0], r#"{"text":"//book["}"#).is_none());
    }
}
