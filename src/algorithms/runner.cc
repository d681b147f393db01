#include "algorithms/runner.h"

#include <utility>

#include "algorithms/programs.h"
#include "core/solver.h"
#include "graph/hub_sort.h"

namespace hytgraph {

Result<PreparedGraph> PreparedGraph::Make(const GraphView& view,
                                          const SolverOptions& options) {
  PreparedGraph prepared;
  if (WantsReorder(options) && view.num_vertices() > 0) {
    HYT_ASSIGN_OR_RETURN(HubSortViewResult sorted,
                         HubSortView(view, options.hub_fraction));
    prepared.view_ = std::move(sorted.view);
    prepared.sorted_ = std::move(sorted.sorted);
  } else {
    prepared.view_ = view;
  }
  return prepared;
}

namespace {

/// Shared run skeleton: build solver, init, run program, map values back.
template <typename Program, typename MakeProgram>
Result<AlgorithmOutput<typename Program::Value>> RunWith(
    const PreparedGraph& prepared, const SolverOptions& options,
    MakeProgram make_program) {
  Solver<Program> solver(prepared.view(), options);
  HYT_RETURN_NOT_OK(solver.Init());
  Program program = make_program(prepared.view());
  HYT_ASSIGN_OR_RETURN(RunTrace trace, solver.Run(&program));
  AlgorithmOutput<typename Program::Value> output;
  output.values = prepared.MapValuesBack(program.Values());
  output.trace = std::move(trace);
  return output;
}

}  // namespace

Result<AlgorithmOutput<uint32_t>> RunBfsOn(const PreparedGraph& prepared,
                                           VertexId source,
                                           const SolverOptions& options) {
  const VertexId mapped = prepared.MapSource(source);
  return RunWith<BfsProgram>(prepared, options, [&](const GraphView& g) {
    return BfsProgram(g, mapped);
  });
}

Result<AlgorithmOutput<uint32_t>> RunSsspOn(const PreparedGraph& prepared,
                                            VertexId source,
                                            const SolverOptions& options) {
  const VertexId mapped = prepared.MapSource(source);
  return RunWith<SsspProgram>(prepared, options, [&](const GraphView& g) {
    return SsspProgram(g, mapped);
  });
}

Result<AlgorithmOutput<uint32_t>> RunCcOn(const PreparedGraph& prepared,
                                          const SolverOptions& options) {
  HYT_ASSIGN_OR_RETURN(
      auto output,
      RunWith<CcProgram>(prepared, options,
                         [&](const GraphView& g) { return CcProgram(g); }));
  if (prepared.reordered()) {
    // CC labels are vertex ids: translate them back to original ids so they
    // are meaningful to the caller. (Note: min-label propagation fixpoints
    // depend on the id order on *directed* graphs — prefer RunCc, which
    // skips the reordering for CC, when exact label semantics matter.)
    for (uint32_t& label : output.values) {
      label = prepared.MapVertexBack(label);
    }
  }
  return output;
}

Result<AlgorithmOutput<double>> RunPageRankOn(const PreparedGraph& prepared,
                                              const SolverOptions& options,
                                              double damping,
                                              double epsilon) {
  PageRankOptions pr;
  pr.damping = damping;
  pr.epsilon = epsilon;
  return RunWith<PageRankProgram>(prepared, options, [&](const GraphView& g) {
    return PageRankProgram(g, pr);
  });
}

Result<AlgorithmOutput<double>> RunPhpOn(const PreparedGraph& prepared,
                                         VertexId source,
                                         const SolverOptions& options,
                                         double damping, double epsilon) {
  PhpOptions php;
  php.damping = damping;
  php.epsilon = epsilon;
  const VertexId mapped = prepared.MapSource(source);
  return RunWith<PhpProgram>(prepared, options, [&](const GraphView& g) {
    return PhpProgram(g, mapped, php);
  });
}

Result<AlgorithmOutput<uint32_t>> RunSswpOn(const PreparedGraph& prepared,
                                            VertexId source,
                                            const SolverOptions& options) {
  const VertexId mapped = prepared.MapSource(source);
  return RunWith<SswpProgram>(prepared, options, [&](const GraphView& g) {
    return SswpProgram(g, mapped);
  });
}

Result<RunTrace> RunAlgorithmTrace(const CsrGraph& graph,
                                   AlgorithmId algorithm, VertexId source,
                                   const SolverOptions& options) {
  const SolverOptions effective = EffectiveOptions(algorithm, options);
  HYT_ASSIGN_OR_RETURN(PreparedGraph prepared,
                       PreparedGraph::Make(graph, effective));
  HYT_ASSIGN_OR_RETURN(
      AlgorithmRun run,
      RunAlgorithmOn(prepared, algorithm, source, AlgoParams{}, effective));
  return std::move(run.trace);
}

}  // namespace hytgraph
