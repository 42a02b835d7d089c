//! The little JSON the benchmark reads and writes: string escaping,
//! number formatting, and pulling a top-level number out of `repro
//! --bench-json` output.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives (`null` for NaN and infinities, which JSON lacks).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The number stored under `"key":` in a flat JSON object.
pub fn number_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("{}:", string(key));
    let rest = text[text.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn number_fields_are_found_by_key() {
        let text = "{\n  \"total_wall_s\": 10.959,\n  \"sim_loads\": 145615573,\n  \"x\": -2e-3}";
        assert_eq!(number_field(text, "total_wall_s"), Some(10.959));
        assert_eq!(number_field(text, "sim_loads"), Some(145615573.0));
        assert_eq!(number_field(text, "x"), Some(-0.002));
        assert_eq!(number_field(text, "missing"), None);
    }
}
