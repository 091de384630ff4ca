//! A minimal JSON object builder for the worker's result line (the
//! workspace's `serde` is an offline no-op shim).

/// An ordered JSON object whose values are already rendered.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// A number, with every digit `{:?}` gives (non-finite values become
    /// `null`, which the orchestrator rejects).
    pub fn num(&mut self, key: &str, value: f64) {
        let rendered = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), rendered));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn boolean(&mut self, key: &str, value: bool) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.0.push((key.to_string(), quote(value)));
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn obj(&mut self, key: &str, value: Obj) {
        self.0.push((key.to_string(), value.render()));
    }

    pub fn objs(&mut self, key: &str, values: Vec<Obj>) {
        let items: Vec<String> = values.into_iter().map(|o| o.render()).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a digest of a sequence of counts, as 16 hex digits.
#[must_use]
pub fn fnv_digest(values: impl IntoIterator<Item = u64>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
