//! The answers every statement is checked against, computed from the
//! generator's edge list without the engine's planner or executors.
//!
//! Walk counts use the paper's tensor form (§III): a path set's per-head
//! multiplicities are a sparse start vector multiplied by one adjacency
//! matrix per label, `x · A_knows · A_knows · A_created`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mrpa_engine::{GraphSnapshot, Value};

/// The generated graph as plain data: names, per-label adjacency lists and
/// the `age` property. Vertex `i` of the oracle is `names[i]`.
pub struct Oracle {
    pub names: Vec<String>,
    index: HashMap<String, u32>,
    pub persons: Vec<u32>,
    pub knows_out: Vec<Vec<u32>>,
    pub knows_in: Vec<Vec<u32>>,
    pub created_out: Vec<Vec<u32>>,
    pub age: Vec<Option<i64>>,
    /// Every edge as `(tail, label, head)` names, in the store's edge order.
    pub edges: Vec<(String, String, String)>,
    /// Every vertex with its properties, in the store's vertex order.
    pub vertices: Vec<(String, Vec<(String, Value)>)>,
}

impl Oracle {
    /// Reads the generator's output once: names, edges and properties.
    pub fn from_snapshot(snap: &GraphSnapshot) -> Self {
        let interner = snap.interner();
        let graph = snap.graph();
        let mut names = Vec::new();
        let mut index = HashMap::new();
        let mut vertices = Vec::new();
        let mut by_engine_id = HashMap::new();
        for v in graph.vertices() {
            let name = interner
                .vertex_name(v)
                .expect("vertex has a name")
                .to_owned();
            by_engine_id.insert(v, names.len() as u32);
            index.insert(name.clone(), names.len() as u32);
            vertices.push((name.clone(), snap.vertex_properties(v)));
            names.push(name);
        }
        let n = names.len();
        let mut knows_out = vec![Vec::new(); n];
        let mut knows_in = vec![Vec::new(); n];
        let mut created_out = vec![Vec::new(); n];
        let mut edges = Vec::with_capacity(graph.edge_count());
        for e in graph.edge_slice() {
            let (t, h) = (by_engine_id[&e.tail], by_engine_id[&e.head]);
            let label = interner.label_name(e.label).expect("label has a name");
            match label {
                "knows" => {
                    knows_out[t as usize].push(h);
                    knows_in[h as usize].push(t);
                }
                "created" => created_out[t as usize].push(h),
                _ => {}
            }
            edges.push((
                names[t as usize].clone(),
                label.to_owned(),
                names[h as usize].clone(),
            ));
        }
        let mut persons = Vec::new();
        let mut age = vec![None; n];
        for (i, (_, props)) in vertices.iter().enumerate() {
            for (key, value) in props {
                match (key.as_str(), value) {
                    ("kind", Value::Text(kind)) if kind == "person" => persons.push(i as u32),
                    ("age", Value::Int(a)) => age[i] = Some(*a),
                    _ => {}
                }
            }
        }
        Oracle {
            names,
            index,
            persons,
            knows_out,
            knows_in,
            created_out,
            age,
            edges,
            vertices,
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn id(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Engine vertex id → oracle id for one store (`u32::MAX` for vertices
    /// the oracle does not know, such as written `w*` vertices).
    pub fn translation(&self, snap: &GraphSnapshot) -> Vec<u32> {
        let mut map = Vec::new();
        for v in snap.graph().vertices() {
            let i = v.0 as usize;
            if map.len() <= i {
                map.resize(i + 1, u32::MAX);
            }
            let name = snap.interner().vertex_name(v).unwrap_or_default();
            map[i] = self.id(name).unwrap_or(u32::MAX);
        }
        map
    }

    /// The indicator vector of `starts`.
    pub fn unit(&self, starts: &[u32]) -> Vec<u64> {
        let mut x = vec![0u64; self.len()];
        for &s in starts {
            x[s as usize] += 1;
        }
        x
    }

    /// One join with a label's edge set: `y = x · A`.
    pub fn step(&self, x: &[u64], adj: &[Vec<u32>]) -> Vec<u64> {
        let mut y = vec![0u64; x.len()];
        for (t, &count) in x.iter().enumerate() {
            if count > 0 {
                for &h in &adj[t] {
                    y[h as usize] += count;
                }
            }
        }
        y
    }

    /// Vertices reachable from `start` by a `knows` walk of 1 to `max` hops.
    pub fn knows_ball(&self, start: u32, max: usize) -> BTreeSet<u32> {
        let mut frontier: BTreeSet<u32> = [start].into();
        let mut ball = BTreeSet::new();
        for _ in 0..max {
            frontier = frontier
                .iter()
                .flat_map(|&v| self.knows_out[v as usize].iter().copied())
                .collect();
            ball.extend(frontier.iter().copied());
        }
        ball
    }

    /// For `knows{1,max-1}·created` walks from `start` with label costs
    /// knows = 1 and created = 2: the cheapest cost of each head reached.
    pub fn cheapest_knows_created(&self, start: u32, max: usize) -> BTreeMap<u32, f64> {
        let mut best = BTreeMap::new();
        let mut frontier: BTreeSet<u32> = [start].into();
        for k in 1..max {
            frontier = frontier
                .iter()
                .flat_map(|&v| self.knows_out[v as usize].iter().copied())
                .collect();
            for &v in &frontier {
                for &h in &self.created_out[v as usize] {
                    best.entry(h).or_insert(k as f64 + 2.0);
                }
            }
        }
        best
    }
}

/// Support of a walk-count vector.
pub fn support(x: &[u64]) -> BTreeSet<u32> {
    x.iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, _)| i as u32)
        .collect()
}
