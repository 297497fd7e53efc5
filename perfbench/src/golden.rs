//! The golden figure results committed in `results/fig*.csv`
//! (`strategy,cache_bytes,cycles`).

use std::collections::HashMap;
use std::fs;

/// Golden total cycles keyed by (panel, strategy label, cache bytes).
pub struct Golden(HashMap<(String, String, u32), u64>);

impl Golden {
    /// Reads `results/fig<panel>.csv` for every panel.
    pub fn load(panels: &[&str]) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for panel in panels {
            let path = format!("results/fig{panel}.csv");
            let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
                let cells: Vec<&str> = line.split(',').collect();
                let parsed = match cells[..] {
                    [label, size, cycles] => size.parse().ok().zip(cycles.parse().ok()).map(
                        |(size, cycles): (u32, u64)| {
                            ((panel.to_string(), label.to_string(), size), cycles)
                        },
                    ),
                    _ => None,
                };
                let (key, cycles) = parsed.ok_or_else(|| format!("{path}: bad row `{line}`"))?;
                map.insert(key, cycles);
            }
        }
        Ok(Golden(map))
    }

    /// Golden cycles for one point of a panel.
    pub fn cycles(&self, panel: &str, label: &str, cache_bytes: u32) -> Option<u64> {
        self.0
            .get(&(panel.to_string(), label.to_string(), cache_bytes))
            .copied()
    }
}
