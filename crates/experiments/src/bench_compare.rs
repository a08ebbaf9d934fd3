//! The JSON value type at its long-standing path. The reader itself lives
//! in [`wormsim_obs::export`], the workspace's one JSON parser; this
//! module re-exports it so code importing `bench_compare::Json` keeps
//! compiling.

pub use wormsim_obs::export::Json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_baseline_shapes() {
        let doc = Json::parse(
            "{\n  \"workload\": \"lowload-small\",\n  \"trace\": 0,\n  \"ok\": false,\n  \
             \"metrics\": [{\"name\": \"a\", \"value\": 123, \"rate\": 1.5e6}]\n}\n",
        )
        .unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("lowload-small")
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let p = &doc.get("metrics").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(p.get("value").and_then(Json::as_f64), Some(123.0));
        assert_eq!(p.get("rate").and_then(Json::as_f64), Some(1.5e6));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse("\"open").is_err());
    }
}
