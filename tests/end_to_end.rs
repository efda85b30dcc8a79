//! Full-framework integration: dataflow program → per-task WCETs →
//! mapping → interference analysis → simulation (the pipeline of the
//! paper's §I).

use mia::prelude::*;
use mia::sim::{simulate, AccessPattern, SimConfig};
use mia::{mapping_heuristics, sdf};

const APP: &str = "
actor sensor wcet=60  accesses=10
actor fusion wcet=180 accesses=20
actor plan   wcet=240 accesses=30
actor act    wcet=90  accesses=12
channel sensor -> fusion produce=2 consume=2 words=4
channel fusion -> plan   produce=1 consume=1 words=6
channel plan   -> act    produce=1 consume=1 words=3
";

#[test]
fn sdf_to_schedule_to_simulation() {
    let graph = sdf::parse(APP).unwrap();
    let expansion = graph.expand(2).unwrap();
    let mapping = mapping_heuristics::earliest_finish(&expansion.graph, 4).unwrap();
    let problem = Problem::new(expansion.graph, mapping, Platform::new(4, 4)).unwrap();
    let schedule = mia::analysis::analyze(&problem, &RoundRobin::new()).unwrap();
    schedule.check(&problem).unwrap();
    for pattern in [AccessPattern::BurstStart, AccessPattern::Uniform] {
        let run = simulate(&problem, &schedule, &SimConfig::new(pattern)).unwrap();
        assert!(run.first_violation(&schedule).is_none());
    }
}

/// A task whose WCET in isolation and shared-memory access count come
/// from an external WCET analyser; the accesses all target bank 0.
fn kernel(name: &str, wcet: Cycles, accesses: u64) -> Task {
    Task::builder(name)
        .wcet(wcet)
        .private_demand(BankDemand::single(BankId(0), accesses))
        .build()
}

#[test]
fn wcet_estimates_feed_the_analysis() {
    // Two synthetic kernels with structural WCET estimates: a 30-cycle
    // prologue plus 32 iterations of a 7-cycle body, and 16 iterations of
    // a branch whose worst path costs 3 + 11 cycles.
    let mut g = TaskGraph::new();
    let a = g.add_task(kernel("dsp", Cycles(30 + 32 * 7), 6 + 32));
    let b = g.add_task(kernel("ctrl", Cycles(16 * 14), 16 * 2));
    g.add_edge(a, b, 8).unwrap();
    let m = mapping_heuristics::load_balanced(&g, 2).unwrap();
    let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    // Dependent tasks on different cores cannot overlap: no interference.
    assert_eq!(s.total_interference(), Cycles::ZERO);
    assert_eq!(
        s.makespan(),
        p.graph().critical_path().unwrap(),
        "chain matches its critical path"
    );
}

#[test]
fn mapping_strategies_change_interference_not_soundness() {
    let graph = sdf::parse(APP).unwrap().expand(4).unwrap().graph;
    for cores in [2usize, 4] {
        for mapping in [
            mapping_heuristics::layered_cyclic(&graph, cores).unwrap(),
            mapping_heuristics::load_balanced(&graph, cores).unwrap(),
            mapping_heuristics::earliest_finish(&graph, cores).unwrap(),
        ] {
            let p = Problem::new(graph.clone(), mapping, Platform::new(cores, cores)).unwrap();
            let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
            s.check(&p).unwrap();
            assert!(s.makespan() >= p.graph().critical_path().unwrap());
        }
    }
}

#[test]
fn deadline_separates_schedulable_from_unschedulable() {
    use mia::analysis::{analyze_with, AnalysisOptions, NoopObserver};
    let graph = sdf::parse(APP).unwrap().expand(1).unwrap().graph;
    let mapping = mapping_heuristics::earliest_finish(&graph, 2).unwrap();
    let p = Problem::new(graph, mapping, Platform::new(2, 2)).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    let tight = AnalysisOptions::new().deadline(s.makespan() - Cycles(1));
    assert!(matches!(
        analyze_with(&p, &RoundRobin::new(), &tight, &mut NoopObserver),
        Err(mia::analysis::AnalysisError::DeadlineExceeded { .. })
    ));
    let exact = AnalysisOptions::new().deadline(s.makespan());
    assert!(analyze_with(&p, &RoundRobin::new(), &exact, &mut NoopObserver).is_ok());
}

/// HEFT and annealing both feed valid problems whose analysed schedules
/// hold up in simulation; annealing never worsens its own cost proxy.
#[test]
fn mapping_heuristics_feed_the_analysis() {
    use mia::dag_gen::{Family, LayeredDag};
    use mia::mapping_heuristics::{anneal, assignment_makespan, heft, AnnealConfig};
    let mut cfg = Family::FixedLayerSize(8).config(48, 77);
    cfg.accesses = 40..=80; // keep demands within WCETs for the simulator
    cfg.edge_words = 0..=8;
    let w = LayeredDag::new(cfg).generate();

    let heft_mapping = heft(&w.graph, 8, 1).unwrap();
    let annealed = anneal(
        &w.graph,
        8,
        &heft_mapping,
        &AnnealConfig {
            iterations: 400,
            ..AnnealConfig::default()
        },
    )
    .unwrap();

    let heft_asg: Vec<usize> = w
        .graph
        .task_ids()
        .map(|t| heft_mapping.core_of(t).index())
        .collect();
    let ann_asg: Vec<usize> = w
        .graph
        .task_ids()
        .map(|t| annealed.core_of(t).index())
        .collect();
    assert!(
        assignment_makespan(&w.graph, &ann_asg).unwrap()
            <= assignment_makespan(&w.graph, &heft_asg).unwrap()
    );

    for mapping in [heft_mapping, annealed] {
        let p = Problem::new(w.graph.clone(), mapping, Platform::new(16, 16)).unwrap();
        let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
        s.check(&p).unwrap();
        let run = simulate(&p, &s, &SimConfig::new(AccessPattern::Uniform)).unwrap();
        assert!(run.first_violation(&s).is_none());
    }
}

/// NoC-gated releases compose: the consumer entry task is never analysed
/// to start before the worst-case frame arrival, and the flow simulator
/// confirms the arrival bound.
#[test]
fn noc_bounds_gate_consumer_releases() {
    use mia::noc::{simulate_flows, worst_case_latencies, Flow, FlowSet, NocConfig, Torus};
    let torus = Torus::mppa256();
    let src = torus.node(0, 0);
    let dst = torus.node(3, 2);

    let mut flows = FlowSet::new();
    let frame = flows.add(Flow::new(src, dst, 128).released_at(Cycles(500)));
    let noise = flows.add(Flow::new(torus.node(1, 0), dst, 64));
    let cfg = NocConfig::default();
    let bounds = worst_case_latencies(&torus, &flows, &cfg);
    let sim = simulate_flows(&torus, &flows, &cfg);
    assert!(sim.delivered(frame) <= bounds[frame.index()]);
    assert!(sim.delivered(noise) <= bounds[noise.index()]);

    let mut g = TaskGraph::new();
    let entry = g.add_task(
        Task::builder("entry")
            .wcet(Cycles(100))
            .min_release(bounds[frame.index()]),
    );
    let work = g.add_task(Task::builder("work").wcet(Cycles(400)));
    g.add_edge(entry, work, 32).unwrap();
    let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
    let p = Problem::new(g, m, Platform::mppa256_cluster()).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    assert!(s.timing(entry).release >= bounds[frame.index()]);
    assert!(s.makespan() >= bounds[frame.index()] + Cycles(500));
}
