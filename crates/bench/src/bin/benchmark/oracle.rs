//! Reference answers computed without the code under test.
//!
//! * Disjoint-chain reachability (`serve_read`, `serve_mixed`) has a closed
//!   form: from node `j` of a chain of `len` edges the reachable nodes are
//!   exactly `j+1 ..= len`, and the nodes reaching `j` are `0 .. j`. Every
//!   reply is checked against it as a 64-bit node mask.
//! * General graphs (`materialise_tc`, `answer_cq`, `decide_pwl`, the
//!   `connected` relation of `chase_warded`) get a plain breadth-first
//!   closure over dense node ids, written here: no joins, no indexes, no
//!   semi-naive rounds. Path counts come from its in- and out-degrees.
//!
//! The only thing the oracles take from the program is the *input*: edge
//! lists are read back out of the generated `Database`. A derived instance
//! is only ever the thing being checked.

use std::collections::HashMap;
use vadalog_model::{Database, Instance, Predicate};

/// Splits a chain-scenario node name `c<k>_n<j>` into `(k, j)`.
pub fn parse_chain_node(name: &str) -> Option<(usize, usize)> {
    let (chain, index) = name.strip_prefix('c')?.split_once("_n")?;
    Some((chain.parse().ok()?, index.parse().ok()?))
}

/// Mask of the chain nodes reachable from node `index`: `index+1 ..= len`.
/// Chains have at most 63 edges, so a node set fits one word.
pub fn reachable_from(index: usize, len: usize) -> u64 {
    assert!(len < 64 && index <= len, "chain node out of range");
    let upto_len = u64::MAX >> (63 - len);
    let upto_index = u64::MAX >> (63 - index);
    upto_len & !upto_index
}

/// Mask of the chain nodes that reach node `index`: `0 .. index`.
pub fn reaching(index: usize) -> u64 {
    assert!(index < 64, "chain node out of range");
    (1u64 << index) - 1
}

/// A directed graph over dense node ids, with the names the program knows
/// the nodes by.
pub struct Graph {
    /// Node names, indexed by id, in first-seen order.
    pub names: Vec<String>,
    /// The edges as `(from, to)` id pairs.
    pub edges: Vec<(usize, usize)>,
    ids: HashMap<String, usize>,
}

impl Graph {
    /// Builds a graph from named edges.
    pub fn from_named_edges<'a>(edges: impl IntoIterator<Item = (&'a str, &'a str)>) -> Graph {
        let mut graph = Graph {
            names: Vec::new(),
            edges: Vec::new(),
            ids: HashMap::new(),
        };
        for (from, to) in edges {
            let from = graph.intern(from);
            let to = graph.intern(to);
            graph.edges.push((from, to));
        }
        graph
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), self.names.len() - 1);
        self.names.len() - 1
    }

    /// The id of the node called `name`, if the graph has one.
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// Reads the binary facts of the given predicates out of a generated
    /// database as one edge list (facts are taken in the database's own
    /// order; the closure does not depend on it).
    pub fn from_database(database: &Database, predicates: &[impl AsRef<str>]) -> Graph {
        let mut named: Vec<(&'static str, &'static str)> = Vec::new();
        for predicate in predicates {
            for fact in database.facts_with_predicate(Predicate::new(predicate.as_ref())) {
                let constant = |position: usize| {
                    fact.terms[position]
                        .as_const()
                        .expect("generated facts are ground")
                        .as_str()
                };
                named.push((constant(0), constant(1)));
            }
        }
        Graph::from_named_edges(named)
    }

    /// The link graph of a data-exchange scenario of the given width: the
    /// union of its `src_<i>` relations (every `src_i(X,Y)` becomes a
    /// `link(X,Y)` through an invented target identifier).
    pub fn of_data_exchange_sources(database: &Database, width: usize) -> Graph {
        let sources: Vec<String> = (0..width).map(|i| format!("src_{i}")).collect();
        Graph::from_database(database, &sources)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    fn successors(&self) -> Vec<Vec<usize>> {
        let mut successors = vec![Vec::new(); self.node_count()];
        for &(from, to) in &self.edges {
            successors[from].push(to);
        }
        successors
    }

    /// Number of distinct `(x, z)` joined by a path of exactly two edges —
    /// the answers of `?(X,Z) :- e(X,Y), e(Y,Z).`
    pub fn two_step_pairs(&self) -> u64 {
        let successors = self.successors();
        let mut seen = vec![usize::MAX; self.node_count()];
        let mut total = 0;
        for (x, firsts) in successors.iter().enumerate() {
            for &y in firsts {
                for &z in &successors[y] {
                    if seen[z] != x {
                        seen[z] = x;
                        total += 1;
                    }
                }
            }
        }
        total
    }
}

/// The transitive closure of a [`Graph`]: `reach[a]` holds `b` iff there is a
/// path of **at least one** edge from `a` to `b` (so `a` reaches itself only
/// on a cycle) — the least fixpoint of
/// `t(X,Y) :- e(X,Y).  t(X,Z) :- e(X,Y), t(Y,Z).`
pub struct Closure {
    nodes: usize,
    words: usize,
    reach: Vec<u64>,
}

impl Closure {
    /// One breadth-first search per node over adjacency lists.
    pub fn of(graph: &Graph) -> Closure {
        let nodes = graph.node_count();
        let words = nodes.div_ceil(64).max(1);
        let successors = graph.successors();
        let mut reach = vec![0u64; nodes * words];
        let mut queue = Vec::new();
        for source in 0..nodes {
            let row = &mut reach[source * words..(source + 1) * words];
            queue.clear();
            queue.push(source);
            while let Some(node) = queue.pop() {
                for &next in &successors[node] {
                    if row[next / 64] & (1 << (next % 64)) == 0 {
                        row[next / 64] |= 1 << (next % 64);
                        queue.push(next);
                    }
                }
            }
        }
        Closure {
            nodes,
            words,
            reach,
        }
    }

    fn row(&self, node: usize) -> &[u64] {
        &self.reach[node * self.words..(node + 1) * self.words]
    }

    /// `true` iff a path of at least one edge leads from `from` to `to`.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        self.row(from)[to / 64] & (1 << (to % 64)) != 0
    }

    /// Number of nodes reachable from `node`.
    pub fn out_degree(&self, node: usize) -> u64 {
        self.row(node)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// For every node, the number of nodes that reach it.
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut degrees = vec![0u64; self.nodes];
        for from in 0..self.nodes {
            for (to, degree) in degrees.iter_mut().enumerate() {
                *degree += u64::from(self.reaches(from, to));
            }
        }
        degrees
    }

    /// Number of pairs in the closure — the tuples a materialisation of `t`
    /// must hold.
    pub fn pairs(&self) -> u64 {
        (0..self.nodes).map(|node| self.out_degree(node)).sum()
    }

    /// Number of homomorphisms of `t(X,Y), t(Y,Z), t(Z,W)` into the closure:
    /// `Σ_{(y,z) ∈ t} in(y) · out(z)`.
    pub fn three_hop_matches(&self) -> u64 {
        let in_degrees = self.in_degrees();
        let out_degrees: Vec<u64> = (0..self.nodes).map(|n| self.out_degree(n)).collect();
        let mut total = 0;
        for (y, &in_degree) in in_degrees.iter().enumerate() {
            if in_degree == 0 {
                continue;
            }
            for (z, &out_degree) in out_degrees.iter().enumerate() {
                if self.reaches(y, z) {
                    total += in_degree * out_degree;
                }
            }
        }
        total
    }

    /// Checks a derived binary relation against the closure: it must hold
    /// exactly [`Closure::pairs`] rows, every one a closure pair over known
    /// nodes. Rows of a relation are distinct, so the two conditions make
    /// the sets equal. Returns the row count.
    pub fn check_relation(
        &self,
        graph: &Graph,
        instance: &Instance,
        predicate: &str,
    ) -> Result<u64, String> {
        let Some(relation) = instance.relation(Predicate::new(predicate)) else {
            return Err(format!("no relation `{predicate}` was derived"));
        };
        let rows = relation.len() as u64;
        if rows != self.pairs() {
            return Err(format!(
                "`{predicate}` holds {rows} rows, the closure has {} pairs",
                self.pairs()
            ));
        }
        for row in relation.rows() {
            let node = |position: usize| {
                row[position]
                    .as_const()
                    .and_then(|symbol| graph.id_of(symbol.as_str()))
            };
            match (node(0), node(1)) {
                (Some(from), Some(to)) if self.reaches(from, to) => {}
                _ => return Err(format!("`{predicate}` holds a row outside the closure")),
            }
        }
        Ok(rows)
    }

    /// Number of distinct `(x, z)` with an edge `x → y` and `t(y, z)` — the
    /// answers of `?(X,Z) :- e(X,Y), t(Y,Z).`
    pub fn edge_then_closure_pairs(&self, graph: &Graph) -> u64 {
        let mut total = 0;
        let mut via = vec![0u64; self.words];
        for firsts in graph.successors() {
            via.iter_mut().for_each(|w| *w = 0);
            for y in firsts {
                for (acc, w) in via.iter_mut().zip(self.row(y)) {
                    *acc |= w;
                }
            }
            total += via.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        total
    }

    /// Number of distinct `(x, z)` with some `y` such that `t(x,y), t(y,z)` —
    /// the answers of `?(X,Z) :- t(X,Y), t(Y,Z).`
    pub fn two_hop_pairs(&self) -> u64 {
        let mut total = 0;
        let mut via = vec![0u64; self.words];
        for x in 0..self.nodes {
            via.iter_mut().for_each(|w| *w = 0);
            for y in 0..self.nodes {
                if self.reaches(x, y) {
                    for (acc, w) in via.iter_mut().zip(self.row(y)) {
                        *acc |= w;
                    }
                }
            }
            total += via.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-written 5-node graph of the oracle tests:
    ///
    /// ```text
    /// a → b → c → a      (a 3-cycle)
    /// c → d              (a tail off the cycle)
    /// e                  (only a source: e → a)
    /// ```
    fn five_nodes() -> Graph {
        Graph::from_named_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("e", "a")])
    }

    fn id(graph: &Graph, name: &str) -> usize {
        graph.id_of(name).unwrap()
    }

    #[test]
    fn chain_oracle_is_the_closed_form() {
        assert_eq!(parse_chain_node("c12_n7"), Some((12, 7)));
        assert_eq!(parse_chain_node("c0_n60"), Some((0, 60)));
        assert_eq!(parse_chain_node("x3"), None);
        assert_eq!(parse_chain_node("c1_nx"), None);
        // A 4-edge chain n0 → n1 → n2 → n3 → n4.
        assert_eq!(reachable_from(0, 4), 0b11110);
        assert_eq!(reachable_from(2, 4), 0b11000);
        assert_eq!(reachable_from(4, 4), 0);
        assert_eq!(reaching(0), 0);
        assert_eq!(reaching(3), 0b00111);
        // The serving workloads' 60-edge chains use 61 of the 64 bits.
        assert_eq!(reachable_from(0, 60).count_ones(), 60);
        assert_eq!(reachable_from(59, 60), 1 << 60);
        assert_eq!(reachable_from(0, 63).count_ones(), 63);
    }

    #[test]
    fn bfs_closure_on_the_five_node_graph() {
        let graph = five_nodes();
        assert_eq!(graph.node_count(), 5);
        let closure = Closure::of(&graph);
        let (a, b, c, d, e) = (
            id(&graph, "a"),
            id(&graph, "b"),
            id(&graph, "c"),
            id(&graph, "d"),
            id(&graph, "e"),
        );
        // Cycle members reach the whole cycle (themselves included) and d.
        for &member in &[a, b, c] {
            for &target in &[a, b, c, d] {
                assert!(closure.reaches(member, target));
            }
            assert!(!closure.reaches(member, e));
            assert_eq!(closure.out_degree(member), 4);
        }
        // d is a sink; e reaches everything but itself.
        assert_eq!(closure.out_degree(d), 0);
        assert_eq!(closure.out_degree(e), 4);
        assert!(!closure.reaches(e, e));
        assert!(!closure.reaches(d, d));
        assert_eq!(closure.pairs(), 16);
        // in: a, b, c, d are each reached by {a, b, c, e}; e by nobody.
        let mut expected_in = vec![0; 5];
        for &node in &[a, b, c, d] {
            expected_in[node] = 4;
        }
        assert_eq!(closure.in_degrees(), expected_in);
    }

    #[test]
    fn path_counts_on_the_five_node_graph() {
        let closure = Closure::of(&five_nodes());
        // Σ_{(y,z)∈t} in(y)·out(z): y ∈ {a,b,c} (in = 4), z ∈ {a,b,c}
        // (out = 4) gives 9·16; z = d and y = e contribute nothing.
        assert_eq!(closure.three_hop_matches(), 144);
        // Distinct (x, z): x ∈ {a,b,c,e} each get {a,b,c,d}.
        assert_eq!(closure.two_hop_pairs(), 16);
        // One edge then the closure: every node with a successor (all but
        // d) steps onto the cycle, which reaches {a,b,c,d}.
        assert_eq!(closure.edge_then_closure_pairs(&five_nodes()), 16);
        // Exactly two edges: a→{c}, b→{a,d}, c→{b}, e→{b}.
        assert_eq!(five_nodes().two_step_pairs(), 5);
        // Cross-check the 3-hop count by brute force over all quadruples.
        let n = 5;
        let t = |x: usize, y: usize| closure.reaches(x, y);
        let mut three = 0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    for w in 0..n {
                        three += u64::from(t(x, y) && t(y, z) && t(z, w));
                    }
                }
            }
        }
        assert_eq!(closure.three_hop_matches(), three);
    }

    #[test]
    fn graphs_are_read_back_from_generated_databases() {
        use vadalog_model::Atom;
        let mut database = Database::new();
        for (from, to) in [("n0", "n1"), ("n1", "n2")] {
            database.insert(Atom::fact("edge", &[from, to])).unwrap();
        }
        database.insert(Atom::fact("other", &["n2", "n0"])).unwrap();
        let edges_only = Graph::from_database(&database, &["edge"]);
        assert_eq!(edges_only.edges.len(), 2);
        assert_eq!(Closure::of(&edges_only).pairs(), 3);
        let both = Graph::from_database(&database, &["edge", "other"]);
        assert_eq!(Closure::of(&both).pairs(), 9);
        assert_eq!(both.id_of("n2"), Some(2));
        assert_eq!(both.id_of("n9"), None);
    }

    #[test]
    fn derived_relations_are_checked_row_by_row() {
        use vadalog_model::Atom;
        let graph = Graph::from_named_edges([("a", "b"), ("b", "c")]);
        let closure = Closure::of(&graph);
        let mut instance = Instance::new();
        for (from, to) in [("a", "b"), ("b", "c"), ("a", "c")] {
            instance.insert(Atom::fact("t", &[from, to])).unwrap();
        }
        assert_eq!(closure.check_relation(&graph, &instance, "t"), Ok(3));
        assert!(closure.check_relation(&graph, &instance, "u").is_err());
        // Right size, wrong pair.
        let mut wrong = Instance::new();
        for (from, to) in [("a", "b"), ("b", "c"), ("c", "a")] {
            wrong.insert(Atom::fact("t", &[from, to])).unwrap();
        }
        assert!(closure.check_relation(&graph, &wrong, "t").is_err());
        // A missing pair.
        let mut short = Instance::new();
        short.insert(Atom::fact("t", &["a", "b"])).unwrap();
        assert!(closure.check_relation(&graph, &short, "t").is_err());
    }
}
