// tut — the command-line profiling tool.
//
// The paper's custom tool (Figure 1: "UML Profiling tool") works on the XML
// presentation of the model and the simulation log-file. This binary exposes
// the same operations:
//
//   tut info      <model.xml>                 model summary
//   tut validate  <model.xml> [--json]        design-rule check (exit 1 on errors)
//   tut lint      <model.xml> [--faults plan.xml] [--json] [--baseline file]
//                 [--write-baseline file] [--Werror] [--rules id|glob,...]
//                 [--absint|--no-absint]
//                                             whole-design static analysis:
//                                             core rules + EFSM bytecode
//                                             (incl. the value-range abstract
//                                             interpretation pass), signal-
//                                             flow and mapping families
//                                             (tut lint --rules lists them).
//                                             --rules VALUE keeps only the
//                                             named rules; globs like efsm.*
//                                             expand against the catalog and
//                                             unknown ids are a hard error.
//                                             Stale baseline entries warn as
//                                             analysis.baseline.stale
//   tut diagram   <model.xml> <figure>        fig3..fig8 as text/DOT on stdout
//   tut codegen   <model.xml> <outdir> [--host]  generate the C implementation
//   tut efsm      dump <model.xml> [--machine NAME]
//                                             disassemble the compiled EFSM
//                                             bytecode of every process
//                                             behaviour (or just NAME) and
//                                             print the per-state value
//                                             ranges the abstract
//                                             interpreter derives
//   tut profile   <model.xml> <sim.log>       Table-4 report + latencies
//   tut simulate  tutmac <outdir> [ms] [--faults plan.xml] [--seed N]
//                 [--batch N] [--threads K] [--backend interpreter|native]
//                 [--profile CLASS|profile.xml]
//                                             build+simulate the case study,
//                                             writing model.xml and sim.log;
//                                             with a fault plan the profiling
//                                             report gains the reliability
//                                             section. --batch N compiles the
//                                             model once and runs N scenarios
//                                             (fault seeds seed..seed+N-1)
//                                             over K worker threads, printing
//                                             a per-scenario table
//   tut campaign  tutmac <campaign.xml> [--threads K] [--shard k/n]
//                 [--checkpoint file] [--resume] [--samples file]
//                 [--backend interpreter|native]
//                 [--profile CLASS|profile.xml]
//                                             scenario-sweep campaign over the
//                                             case study: compiles one image
//                                             per swept mapping, runs the
//                                             sweep with streaming
//                                             aggregation (digests + P2
//                                             percentile sketches), prints
//                                             the campaign summary. --shard
//                                             k/n runs the k-th of n
//                                             contiguous index ranges;
//                                             --checkpoint/--resume survive
//                                             kills; --samples writes the
//                                             part file `campaign merge`
//                                             consumes
//   tut campaign  tutmac <campaign.xml> --dry-run
//                                             preflight: scenario count, axes,
//                                             fingerprint and part-file size —
//                                             nothing is built or run
//   tut campaign  merge <part>...             merge shard part files into the
//                                             single-process aggregate
//   tut serve     [--port N] [--profile CLASS|profile.xml] [--threads K]
//                                             persistent simulation daemon with
//                                             a content-hash compiled-model
//                                             cache; prints "tut-serve: ready
//                                             port=N" once accepting
//   tut client    --port N <simulate tutmac|lint|campaign tutmac|stats|evict|
//                 shutdown> ...               thin client: same flags as the
//                                             single-shot commands, but the
//                                             daemon reuses cached images, so
//                                             warm requests skip the whole
//                                             parse/lower/compile pipeline
//   tut roundtrip <model.xml>                 canonicalized XML on stdout
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/analyzer.hpp"
#include "appmodel/appmodel.hpp"
#include "codegen/codegen.hpp"
#include "codegen/native.hpp"
#include "diagram/diagram.hpp"
#include "efsm/program.hpp"
#include "intern/fnv.hpp"
#include "profile/tut_profile.hpp"
#include "profiler/profiler.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/resource.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"
#include "uml/validation.hpp"

using namespace tut;

namespace {

int usage() {
  std::cerr <<
      "usage: tut <command> ...\n"
      "  info      <model.xml>\n"
      "  validate  <model.xml> [--json]\n"
      "  lint      <model.xml> [--faults plan.xml] [--json] [--baseline file]"
      " [--write-baseline file] [--Werror] [--rules id|glob,...]"
      " [--absint|--no-absint]\n"
      "  lint      --rules\n"
      "  diagram   <model.xml> <fig3|fig4|fig5|fig6|fig7|fig8>\n"
      "  codegen   <model.xml> <outdir> [--host]\n"
      "  efsm      dump <model.xml> [--machine NAME]\n"
      "  profile   <model.xml> <sim.log>\n"
      "  simulate  tutmac <outdir> [horizon_ms] [--faults plan.xml] [--seed N]"
      " [--batch N] [--threads K] [--backend interpreter|native]"
      " [--profile CLASS|profile.xml]\n"
      "  campaign  tutmac <campaign.xml> [--threads K] [--shard k/n]"
      " [--checkpoint file] [--resume] [--samples file]"
      " [--backend interpreter|native] [--profile CLASS|profile.xml]\n"
      "            (profile classes: unbounded, constrained, balanced,"
      " server)\n"
      "  campaign  tutmac <campaign.xml> --dry-run\n"
      "  campaign  merge <part>...\n"
      "  serve     [--port N] [--profile CLASS|profile.xml] [--threads K]\n"
      "  client    --port N simulate tutmac <outdir> [horizon_ms]"
      " [--faults plan.xml] [--seed N] [--backend interpreter|native]\n"
      "  client    --port N lint <model.xml> [--json] [--Werror]\n"
      "  client    --port N campaign tutmac <campaign.xml> [--threads K]"
      " [--backend interpreter|native]\n"
      "  client    --port N stats | evict [key-hex] | shutdown\n"
      "  roundtrip <model.xml>\n";
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::unique_ptr<uml::Model> load_model(const std::string& path) {
  return uml::from_xml_string(read_file(path));
}

/// Resolves --profile: a named class (unbounded/constrained/balanced/server)
/// or a path to a <tut:profile> XML file.
sim::ResourceProfile resolve_profile(const std::string& spec) {
  if (spec.empty()) return sim::ResourceProfile::unbounded();
  if (std::filesystem::exists(spec)) {
    return sim::ResourceProfile::from_xml_text(read_file(spec));
  }
  return sim::ResourceProfile::by_name(spec);
}

/// Reads a "--backend VALUE" or "--backend=VALUE" flag at args[i] into
/// `out`, advancing i past its value. Returns false when args[i] is not
/// that flag; an unknown VALUE leaves `out` empty (the caller's usage()).
bool backend_flag(const std::vector<std::string>& args, std::size_t& i,
                  std::optional<sim::Backend>& out) {
  std::string value;
  if (args[i] == "--backend" && i + 1 < args.size()) {
    value = args[++i];
  } else if (args[i].rfind("--backend=", 0) == 0) {
    value = args[i].substr(10);
  } else {
    return false;
  }
  out.reset();
  if (value == "interpreter") out = sim::Backend::Interpreter;
  if (value == "native") out = sim::Backend::Native;
  return true;
}

/// Resolves --backend for the compiled models of one run (one per swept
/// mapping). Native emits + compiles (or reuses the cached .so) each one;
/// when that fails — typically no C++ compiler on the host — the tagged
/// diagnostic goes to stderr and every model falls back to the interpreter
/// together (a half-native campaign would make the provenance ambiguous).
/// Simulation results are byte-identical either way; only throughput
/// differs.
std::vector<std::shared_ptr<const sim::BackendImage>> make_images(
    sim::Backend backend,
    const std::vector<std::shared_ptr<const sim::CompiledModel>>& models) {
  std::vector<std::shared_ptr<const sim::BackendImage>> images;
  if (backend == sim::Backend::Native) {
    try {
      for (const auto& model : models) {
        images.push_back(codegen::NativeImage::build(model));
      }
      return images;
    } catch (const std::exception& e) {
      std::cerr << "tut: " << e.what()
                << "\ntut: falling back to the interpreter backend\n";
      images.clear();
    }
  }
  for (const auto& model : models) {
    images.push_back(sim::interpreter_image(model));
  }
  return images;
}

/// Provenance line: "backend: NAME", plus " (image HASH)" for a generated
/// image (the interpreter's hash is 0).
void print_backend(std::string_view name, std::uint64_t image_hash) {
  std::cout << "backend: " << name;
  if (image_hash != 0) {
    char hex[32];
    std::snprintf(hex, sizeof hex, " (image %016llx)",
                  static_cast<unsigned long long>(image_hash));
    std::cout << hex;
  }
  std::cout << '\n';
}

int cmd_efsm_dump(const std::string& path, const std::string& machine_name) {
  const auto model = load_model(path);
  appmodel::ApplicationView view(*model);
  // Processes share behaviour classes; dump each state machine once, in
  // first-process order (the same order CompiledModel lowers them).
  std::vector<const uml::StateMachine*> machines;
  bool matched = false;
  for (const uml::Property* proc : view.processes()) {
    const uml::Class* comp = proc->part_type();
    const uml::StateMachine* sm =
        comp != nullptr ? comp->behavior() : nullptr;
    if (sm == nullptr) continue;
    if (!machine_name.empty() && sm->name() != machine_name) continue;
    matched = true;
    if (std::find(machines.begin(), machines.end(), sm) == machines.end()) {
      machines.push_back(sm);
    }
  }
  if (!machine_name.empty() && !matched) {
    std::cerr << "no process behaviour named '" << machine_name << "'\n";
    return 1;
  }
  if (machines.empty()) {
    std::cerr << "model has no executable process behaviours\n";
    return 1;
  }
  bool first = true;
  for (const uml::StateMachine* sm : machines) {
    if (!first) std::cout << '\n';
    first = false;
    const efsm::CompiledMachine cm(*sm);
    std::cout << efsm::disassemble(cm);
    const analysis::absint::MachineSummary summary =
        analysis::absint::analyze(cm);
    if (summary.analyzed) {
      std::cout << '\n' << analysis::absint::invariants_text(cm, summary);
    }
  }
  return 0;
}

int cmd_info(const std::string& path) {
  const auto model = load_model(path);
  mapping::SystemView view(*model);
  std::cout << "model    : " << model->name() << " (" << model->size()
            << " elements)\n";
  const uml::Class* app = view.app().application();
  std::cout << "app      : " << (app != nullptr ? app->name() : "<none>")
            << '\n';
  std::cout << "processes: " << view.app().processes().size() << " (";
  bool first = true;
  for (const uml::Property* p : view.app().processes()) {
    std::cout << (first ? "" : ", ") << p->name();
    first = false;
  }
  std::cout << ")\n";
  std::cout << "groups   : " << view.app().groups().size() << '\n';
  std::cout << "platform : " << view.plat().instances().size()
            << " component instances, " << view.plat().segments().size()
            << " segments\n";
  for (const uml::Property* g : view.app().groups()) {
    const uml::Property* pe = view.instance_for_group(*g);
    std::cout << "  " << g->name() << " -> "
              << (pe != nullptr ? pe->name() : "<unmapped>") << '\n';
  }
  return 0;
}

int cmd_validate(const std::string& path, bool json) {
  const auto model = load_model(path);
  const auto result = profile::make_validator().run(*model);
  if (json) {
    // Shares the lint renderer: same shape, core rules only, no offsets.
    analysis::Report report;
    report.merge(result);
    report.sort();
    std::cout << report.to_json() << '\n';
  } else {
    std::cout << result.to_string();
    std::cout << result.error_count() << " errors, " << result.warning_count()
              << " warnings\n";
  }
  return result.ok() ? 0 : 1;
}

int cmd_lint_rules() {
  for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
    std::cout << rule.id << " (" << uml::to_string(rule.severity) << "): "
              << rule.summary << '\n';
  }
  return 0;
}

/// Shell-style glob over a rule id: '*' matches any run, '?' one character.
bool glob_match(std::string_view pat, std::string_view s) {
  std::size_t p = 0, i = 0, star = std::string_view::npos, mark = 0;
  while (i < s.size()) {
    if (p < pat.size() && (pat[p] == s[i] || pat[p] == '?')) {
      ++p, ++i;
    } else if (p < pat.size() && pat[p] == '*') {
      star = p++;
      mark = i;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      i = ++mark;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

/// Parses a --rules value (comma-separated ids or globs) into a keep
/// predicate. Every token must name or match at least one known rule —
/// analysis catalog or core profile rule — otherwise the filter would
/// silently drop everything.
std::function<bool(const std::string&)> make_rule_filter(
    const std::string& spec) {
  std::vector<std::string> known;
  for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
    known.emplace_back(rule.id);
  }
  const uml::Validator validator = profile::make_validator();
  for (const uml::Rule& rule : validator.rules()) {
    known.push_back(rule.id);
  }
  std::vector<std::string> patterns;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const bool is_glob = tok.find_first_of("*?") != std::string::npos;
    const bool hits = std::any_of(
        known.begin(), known.end(), [&tok, is_glob](const std::string& id) {
          return is_glob ? glob_match(tok, id) : id == tok;
        });
    if (!hits) {
      throw std::invalid_argument(
          "[lint.rules.unknown] " +
          std::string(is_glob ? "pattern '" : "unknown rule id '") + tok +
          (is_glob ? "' matches no known rule" : "'") +
          " (tut lint --rules lists the catalog)");
    }
    patterns.push_back(tok);
  }
  if (patterns.empty()) {
    throw std::invalid_argument(
        "[lint.rules.unknown] --rules needs at least one rule id or glob");
  }
  return [patterns](const std::string& rule) {
    for (const std::string& pat : patterns) {
      if (pat.find_first_of("*?") != std::string::npos
              ? glob_match(pat, rule)
              : pat == rule) {
        return true;
      }
    }
    return false;
  };
}

int cmd_lint(const std::string& path, const std::string& faults_path,
             bool json, bool werror, const std::string& baseline_path,
             const std::string& write_baseline_path,
             const std::string& rules_spec, bool absint) {
  // Validate --rules up front so a typo fails before any analysis runs.
  std::function<bool(const std::string&)> keep;
  if (!rules_spec.empty()) keep = make_rule_filter(rules_spec);

  const std::string xml = read_file(path);
  const auto model = uml::from_xml_string(xml);

  analysis::Options options;
  options.xml_text = xml;
  options.absint = absint;
  sim::FaultPlan plan;
  if (!faults_path.empty()) {
    plan = sim::FaultPlan::from_xml_text(read_file(faults_path));
    options.faults = &plan;
  }

  analysis::Report report = analysis::analyze(*model, options);
  analysis::Baseline baseline;
  if (!baseline_path.empty()) {
    baseline = analysis::Baseline::parse(read_file(baseline_path));
    report.apply_baseline(baseline);
  }
  if (!write_baseline_path.empty()) {
    // Written from the current findings, so stale entries drop out here.
    std::ofstream out(write_baseline_path);
    out << analysis::Baseline::from_diagnostics(report.diagnostics());
    std::cerr << "wrote baseline to " << write_baseline_path << '\n';
  }
  if (!baseline_path.empty()) {
    // After --write-baseline: stale warnings must never serialize into a
    // fresh baseline, only flag rot in the checked-in one.
    for (const auto& [rule, element] :
         baseline.stale_against(report.diagnostics())) {
      report.add(uml::Severity::Warning, "analysis.baseline.stale", element,
                 "baseline entry '" + rule +
                     "' matches no current finding; remove it or refresh "
                     "with --write-baseline");
    }
    report.sort();
  }
  if (keep) report.filter_rules(keep);
  std::cout << (json ? report.to_json() + "\n" : report.to_text());
  return report.ok(werror) ? 0 : 1;
}

int cmd_diagram(const std::string& path, const std::string& figure) {
  const auto model = load_model(path);
  if (figure == "fig3") {
    std::cout << diagram::profile_hierarchy_text(profile::find(*model));
    return 0;
  }
  if (figure == "fig4") {
    std::cout << diagram::class_diagram_dot(*model);
    return 0;
  }
  if (figure == "fig5") {
    appmodel::ApplicationView view(*model);
    if (view.application() == nullptr) {
      std::cerr << "no <<Application>> class in the model\n";
      return 1;
    }
    std::cout << diagram::composite_structure_dot(*view.application());
    return 0;
  }
  if (figure == "fig6") {
    std::cout << diagram::grouping_dot(*model);
    return 0;
  }
  if (figure == "fig7") {
    std::cout << diagram::platform_dot(*model);
    return 0;
  }
  if (figure == "fig8") {
    std::cout << diagram::mapping_dot(*model);
    return 0;
  }
  std::cerr << "unknown figure '" << figure << "'\n";
  return 2;
}

int cmd_codegen(const std::string& path, const std::string& outdir,
                bool host) {
  const auto model = load_model(path);
  codegen::Options opt;
  opt.host_runtime = host;
  const auto bundle = codegen::generate(*model, opt);
  bundle.write_to(outdir);
  std::cout << "wrote " << bundle.files.size() << " files ("
            << bundle.total_lines() << " lines) to " << outdir << '\n';
  if (host) {
    std::cout << "build: gcc -std=c99 -I" << outdir << " " << outdir
              << "/*.c -o app\n";
  }
  return 0;
}

int cmd_profile(const std::string& model_path, const std::string& log_path) {
  // Stage 1: model parsing; stage 3: combine and analyze.
  const auto info = profiler::ProcessGroupInfo::from_xml(read_file(model_path));
  const auto log = sim::SimulationLog::parse(read_file(log_path));
  const auto report = profiler::analyze(info, log);
  std::cout << report.to_text() << '\n';
  const auto latencies = profiler::latency_report(log);
  if (!latencies.empty()) {
    std::cout << "End-to-end signal latencies (ticks)\n"
              << profiler::latency_to_text(latencies);
  }
  return 0;
}

int cmd_simulate_tutmac(const std::string& outdir, long horizon_ms,
                        const std::string& faults_path, long seed,
                        std::size_t batch, std::size_t threads,
                        sim::Backend backend,
                        const std::string& profile_spec) {
  const sim::ResourceProfile profile = resolve_profile(profile_spec);
  if (!profile_spec.empty()) {
    std::cout << "profile: " << profile.to_text() << '\n';
  }
  tutmac::Options opt;
  opt.horizon = static_cast<sim::Time>(horizon_ms) * 1'000'000;
  tutmac::System sys = tutmac::build(opt);
  mapping::SystemView view(*sys.model);

  sim::Config config;
  config.horizon = opt.horizon;
  config.envelope = profile;
  if (!faults_path.empty()) {
    config.faults = sim::FaultPlan::from_xml_text(read_file(faults_path));
  }
  if (seed >= 0) config.faults.seed = static_cast<std::uint64_t>(seed);

  std::string log_text;
  std::uint64_t events = 0;
  // The run whose log is written out and, in degraded mode, profiled.
  std::optional<sim::Simulation> simulation;
  // Lower the model once; batch mode fans the scenarios out over it.
  const auto compiled = sim::CompiledModel::build(view);
  const std::shared_ptr<const sim::BackendImage> image =
      make_images(backend, {compiled}).front();
  if (batch <= 1) {
    // A single interpreter run prints no provenance line.
    if (image->content_hash() != 0) {
      print_backend(image->name(), image->content_hash());
    }
    simulation.emplace(image, config);
    sys.inject_workload(*simulation);
    simulation->run();
    log_text = simulation->log().to_text();
    events = simulation->events_dispatched();
  } else {
    // Scenario i perturbs only the fault seed, so without a fault plan all
    // rows hash identically (itself a useful determinism check).
    std::vector<sim::BatchScenario> scenarios;
    for (std::size_t i = 0; i < batch; ++i) {
      sim::BatchScenario s;
      s.name = "seed-" + std::to_string(config.faults.seed + i);
      s.config = config;
      s.config.faults.seed = config.faults.seed + i;
      s.setup = [&sys](sim::Simulation& sim) { sys.inject_workload(sim); };
      scenarios.push_back(std::move(s));
    }
    // Logs are hashed and released inside the runner (memory stays
    // O(threads) however large N is); the sim.log written below comes from
    // the determinism rerun of scenario 0.
    sim::BatchOptions options;
    options.threads = threads;
    options.profile = profile;
    const sim::BatchRunner runner(image, options);
    const auto results = runner.run(scenarios);

    for (const std::string& note : runner.notes()) {
      std::cout << "note: " << note << '\n';
    }
    std::cout << "batch of " << batch << " scenarios over "
              << runner.threads() << " thread(s)\n";
    // Provenance row: which executor produced these hashes (BatchResult
    // carries it per scenario; one image ⇒ one line).
    if (!results.empty()) {
      print_backend(results[0].backend, results[0].image_hash);
    }
    std::cout << "scenario        events    records   end(ms)   log-hash\n";
    for (const sim::BatchResult& r : results) {
      if (!r.error.empty()) {
        std::cout << r.name << "  ERROR: " << r.error << '\n';
        continue;
      }
      char line[128];
      std::snprintf(line, sizeof line, "%-14s %9llu  %9zu  %8.1f   %016llx\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events), r.records,
                    static_cast<double>(r.end_time) / 1e6,
                    static_cast<unsigned long long>(r.log_hash));
      std::cout << line;
    }
    if (results[0].error.empty()) {
      events = results[0].events;
      // Determinism check: a fresh single interpreter run of scenario 0
      // must hash to the batch's row 0 (and donates the log file we write
      // out). Under --backend=native row 0 came from the generated image,
      // so this doubles as an interpreter-vs-native byte-identity check.
      simulation.emplace(compiled, scenarios[0].config);
      sys.inject_workload(*simulation);
      simulation->run();
      log_text = simulation->log().to_text();
      const auto check_hash = intern::Fnv::of(log_text);
      std::cout << "determinism check: "
                << (check_hash == results[0].log_hash ? "ok" : "MISMATCH")
                << '\n';
      if (check_hash != results[0].log_hash) return 1;
    }
  }

  std::filesystem::create_directories(outdir);
  {
    std::ofstream out(outdir + "/model.xml");
    out << uml::to_xml_string(*sys.model);
  }
  {
    std::ofstream out(outdir + "/sim.log");
    out << log_text;
  }
  std::cout << "simulated " << horizon_ms << " ms (" << events << " events)\n"
            << "wrote " << outdir << "/model.xml and " << outdir
            << "/sim.log\n";
  if (!faults_path.empty()) {
    // Degraded-mode runs print the profiling report directly: its
    // reliability section is the point of the exercise.
    // A batch whose first scenario failed has no log: profile an empty one.
    const auto info = profiler::ProcessGroupInfo::from_model(*sys.model);
    const sim::SimulationLog none;
    std::cout << '\n'
              << profiler::analyze(info, simulation ? simulation->log() : none)
                     .to_text();
  }
  return 0;
}

/// Resolves a campaign mapping-axis name to the tutmac design alternative.
tutmac::MappingChoice tutmac_mapping_choice(const std::string& name) {
  if (name == "paper") return tutmac::MappingChoice::Paper;
  if (name == "loadBalanced") return tutmac::MappingChoice::LoadBalanced;
  if (name == "singlePe") return tutmac::MappingChoice::SinglePe;
  throw std::invalid_argument(
      "campaign: [campaign.ref.unknown] unknown tutmac mapping '" + name +
      "' (paper, loadBalanced, singlePe)");
}

int print_campaign_result(const sim::CampaignResult& result) {
  std::cout << result.aggregate.to_text();
  if (!result.completed) {
    std::cout << "partial:   stopped at scenario " << result.next << " of ["
              << result.first << ", " << result.end << ") — resume with "
              "--resume\n";
    return 1;
  }
  return 0;
}

int cmd_campaign_tutmac(const std::string& campaign_path,
                        sim::CampaignOptions options, sim::Backend backend,
                        const std::string& profile_spec) {
  options.profile = resolve_profile(profile_spec);
  if (!profile_spec.empty()) {
    std::cout << "profile: " << options.profile.to_text() << '\n';
  }
  const std::filesystem::path base =
      std::filesystem::path(campaign_path).parent_path();
  // Fault-plan files referenced by the campaign resolve relative to the
  // campaign file, like XML includes everywhere else. The profile's arena
  // ceiling governs the campaign-spec parse itself.
  const auto spec = sim::CampaignSpec::from_xml_text(
      read_file(campaign_path),
      [&base](const std::string& file) {
        const std::filesystem::path p(file);
        return read_file(p.is_absolute() ? file : (base / p).string());
      },
      static_cast<std::size_t>(options.profile.arena_bytes));

  // One built system + compiled image per swept mapping (entry 0 is the
  // paper mapping when the sweep names none). The systems stay alive for
  // their signal handles, which the setup callback injects through.
  std::vector<std::string> mapping_names = spec.mapping_names;
  if (mapping_names.empty()) mapping_names.push_back("paper");
  std::vector<tutmac::System> systems;
  std::vector<std::shared_ptr<const sim::CompiledModel>> models;
  for (const std::string& name : mapping_names) {
    tutmac::Options opt;
    opt.mapping = tutmac_mapping_choice(name);
    systems.push_back(tutmac::build(opt));
    mapping::SystemView view(*systems.back().model);
    models.push_back(sim::CompiledModel::build(view));
  }
  std::vector<std::shared_ptr<const sim::BackendImage>> images =
      make_images(backend, models);
  std::cout << "backend: " << images.front()->name();
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (images[i]->content_hash() == 0) continue;
    char hex[48];
    std::snprintf(hex, sizeof hex, " %s=%016llx", mapping_names[i].c_str(),
                  static_cast<unsigned long long>(images[i]->content_hash()));
    std::cout << hex;
  }
  std::cout << '\n';

  const auto setup =
      [&systems](sim::Simulation& simulation, const sim::Scenario& sc) {
        const tutmac::System& sys = systems[sc.image];
        tutmac::Options o = sys.options;
        o.horizon = simulation.config().horizon;
        o.slot_period = static_cast<sim::Time>(
            sc.param("slotPeriod", static_cast<long>(o.slot_period)));
        o.rx_period = static_cast<sim::Time>(
            sc.param("rxPeriod", static_cast<long>(o.rx_period)));
        o.msdu_period = static_cast<sim::Time>(
            sc.param("msduPeriod", static_cast<long>(o.msdu_period)));
        sys.inject_workload(simulation, o);
      };
  const sim::CampaignRunner runner(std::move(images), setup);

  const sim::CampaignResult result = runner.run(spec, options);
  for (const std::string& note : result.notes) {
    std::cout << "note: " << note << '\n';
  }
  const std::uint64_t ran = result.next - result.first;
  std::cout << "campaign '" << spec.name << "': scenarios [" << result.first
            << ", " << result.end << ") of " << spec.total();
  if (options.shard.count > 1) {
    std::cout << "  (shard " << options.shard.index << "/"
              << options.shard.count << ")";
  }
  std::cout << "\n";
  if (result.wall_seconds > 0) {
    char rate[64];
    std::snprintf(rate, sizeof rate, "%.0f runs/sec, %.2f s wall\n",
                  static_cast<double>(ran) / result.wall_seconds,
                  result.wall_seconds);
    std::cout << rate;
  }
  return print_campaign_result(result);
}

int cmd_campaign_merge(const std::vector<std::string>& parts) {
  const sim::CampaignResult result = sim::merge_campaign_parts(parts);
  std::cout << "merged " << parts.size() << " part file(s): scenarios [0, "
            << result.end << ")\n";
  return print_campaign_result(result);
}

/// `tut campaign tutmac <xml> --dry-run` — the preflight: parse + validate
/// the sweep and quote its cost (scenario count, axes, fingerprint, exact
/// part-file size) without building a system or running anything.
int cmd_campaign_dry_run(const std::string& campaign_path,
                         const std::string& profile_spec) {
  const sim::ResourceProfile profile = resolve_profile(profile_spec);
  const std::filesystem::path base =
      std::filesystem::path(campaign_path).parent_path();
  const auto spec = sim::CampaignSpec::from_xml_text(
      read_file(campaign_path),
      [&base](const std::string& file) {
        const std::filesystem::path p(file);
        return read_file(p.is_absolute() ? file : (base / p).string());
      },
      static_cast<std::size_t>(profile.arena_bytes));
  const std::vector<std::string> defects = spec.validate();
  for (const std::string& d : defects) std::cout << "error: " << d << '\n';
  if (!defects.empty()) return 1;

  const std::uint64_t total = spec.total();
  std::cout << "campaign '" << spec.name << "' (dry run)\n"
            << "mode:        "
            << (spec.mode == sim::CampaignSpec::Mode::Cartesian ? "cartesian"
                                                                : "zip")
            << ", seed " << spec.base_seed << ", horizon "
            << spec.base.horizon << " ticks\n"
            << "scenarios:   " << total << '\n';
  for (const sim::CampaignAxis& axis : spec.axes) {
    std::cout << "axis:        " << axis.name << " (" << axis.values.size()
              << " values)\n";
  }
  if (!spec.mapping_names.empty()) {
    std::cout << "mappings:    ";
    for (std::size_t i = 0; i < spec.mapping_names.size(); ++i) {
      std::cout << (i != 0 ? ", " : "") << spec.mapping_names[i];
    }
    std::cout << '\n';
  }
  if (spec.plans.size() > 1) {
    std::cout << "plans:       ";
    for (std::size_t i = 0; i < spec.plans.size(); ++i) {
      std::cout << (i != 0 ? ", " : "") << spec.plans[i].first;
    }
    std::cout << '\n';
  }
  char line[96];
  std::snprintf(line, sizeof line, "fingerprint: %016llx\n",
                static_cast<unsigned long long>(spec.fingerprint()));
  std::cout << line;
  std::cout << "part file:   " << sim::part_file_bytes(total)
            << " bytes with --samples (" << sim::part_file_bytes(1) -
            sim::part_file_bytes(0) << " per scenario)\n";
  return 0;
}

/// The three periodic environment streams of the TUTMAC case study as wire
/// workload entries. The server replays tutmac::System::inject_workload's
/// arithmetic from these, so served runs are byte-identical to local ones;
/// the param names let campaign axes override the periods per scenario.
std::vector<serve::WorkloadEntry> tutmac_workload(const tutmac::System& sys) {
  const tutmac::Options& o = sys.options;
  std::vector<serve::WorkloadEntry> w(3);
  w[0].port = "pphy";
  w[0].signal = sys.radio_slot->name();
  w[0].param = "slotPeriod";
  w[0].period = o.slot_period;
  w[1].port = "pphy";
  w[1].signal = sys.rx_frame->name();
  w[1].param = "rxPeriod";
  w[1].period = o.rx_period;
  w[1].first_offset = 7'777;
  w[1].args = {256};
  w[2].port = "puser";
  w[2].signal = sys.user_msdu->name();
  w[2].param = "msduPeriod";
  w[2].period = o.msdu_period;
  w[2].first_offset = 3'333;
  w[2].args = {512};
  return w;
}

int cmd_serve(std::uint16_t port, const std::string& profile_spec,
              std::size_t threads) {
  // A daemon defaults to the server envelope (1 GiB cache ceiling) rather
  // than unbounded: it is long-lived by design.
  const sim::ResourceProfile profile =
      resolve_profile(profile_spec.empty() ? "server" : profile_spec);
  serve::Engine engine(profile);
  serve::Server server(engine, port, threads);
  // The ready line is machine-parsed (CI, scripts): keep the shape stable
  // and flush before blocking in the accept loop.
  std::cout << "tut-serve: ready port=" << server.port() << " profile="
            << profile.name << " workers=" << server.threads() << std::endl;
  server.run();
  const serve::CacheStats stats = engine.cache().stats();
  std::cout << "tut-serve: stopped (" << stats.hits << " hits, "
            << stats.misses << " misses, " << stats.evictions
            << " evictions)\n";
  return 0;
}

int cmd_client_simulate_tutmac(std::uint16_t port, const std::string& outdir,
                               long horizon_ms, const std::string& faults_path,
                               long seed, sim::Backend backend) {
  tutmac::Options opt;
  opt.horizon = static_cast<sim::Time>(horizon_ms) * 1'000'000;
  const tutmac::System sys = tutmac::build(opt);

  serve::SimulateRequest q;
  q.model_xml = uml::to_xml_string(*sys.model);
  q.backend = backend;
  q.horizon = opt.horizon;
  if (!faults_path.empty()) q.faults_xml = read_file(faults_path);
  if (seed >= 0) {
    q.has_seed = true;
    q.seed = static_cast<std::uint64_t>(seed);
  }
  q.want_log = true;
  q.workload = tutmac_workload(sys);

  serve::Client client("127.0.0.1", port);
  const std::string body = client.call(q.encode());
  serve::wire::Reader r(body);
  const serve::SimulateResponse p = serve::SimulateResponse::decode(r);

  std::cout << "cache: " << (p.warm ? "warm" : "cold") << '\n';
  print_backend(p.backend_name, p.image_hash);

  std::filesystem::create_directories(outdir);
  {
    std::ofstream out(outdir + "/model.xml");
    out << q.model_xml;
  }
  {
    std::ofstream out(outdir + "/sim.log");
    out << p.log_text;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(p.digest));
  std::cout << "simulated " << horizon_ms << " ms (" << p.events
            << " events, " << p.records << " records, digest " << digest
            << ")\nwrote " << outdir << "/model.xml and " << outdir
            << "/sim.log\n";
  return 0;
}

int cmd_client_lint(std::uint16_t port, const std::string& model_path,
                    bool json, bool werror) {
  serve::LintRequest q;
  q.model_xml = read_file(model_path);
  q.json = json;
  q.werror = werror;
  serve::Client client("127.0.0.1", port);
  const std::string body = client.call(q.encode());
  serve::wire::Reader r(body);
  const serve::LintResponse p = serve::LintResponse::decode(r);
  std::cerr << "cache: " << (p.warm ? "warm" : "cold") << '\n';
  std::cout << p.text;
  return p.ok ? 0 : 1;
}

int cmd_client_campaign_tutmac(std::uint16_t port,
                               const std::string& campaign_path,
                               std::uint32_t threads,
                               sim::Backend backend) {
  serve::CampaignRequest q;
  q.campaign_xml = read_file(campaign_path);
  q.backend = backend;
  q.threads = threads;

  // Parse the sweep locally once: to learn which mapping images to ship and
  // to inline every referenced fault-plan file (the daemon never touches
  // client disks).
  const std::filesystem::path base =
      std::filesystem::path(campaign_path).parent_path();
  const auto spec = sim::CampaignSpec::from_xml_text(
      q.campaign_xml, [&base, &q](const std::string& file) {
        const std::filesystem::path p(file);
        std::string content =
            read_file(p.is_absolute() ? file : (base / p).string());
        q.files.emplace_back(file, content);
        return content;
      });

  std::vector<std::string> mapping_names = spec.mapping_names;
  if (mapping_names.empty()) mapping_names.push_back("paper");
  for (const std::string& name : mapping_names) {
    tutmac::Options opt;
    opt.mapping = tutmac_mapping_choice(name);
    const tutmac::System sys = tutmac::build(opt);
    q.images.emplace_back(name, uml::to_xml_string(*sys.model));
    if (q.workload.empty()) q.workload = tutmac_workload(sys);
  }

  serve::Client client("127.0.0.1", port);
  const std::string body = client.call(q.encode());
  serve::wire::Reader r(body);
  const serve::CampaignResponse p = serve::CampaignResponse::decode(r);
  std::cout << "cache: " << p.warm_images << "/" << q.images.size()
            << " images warm\nbackend: " << p.backend_name << '\n'
            << p.text;
  return p.completed ? 0 : 1;
}

int cmd_client_admin(std::uint16_t port, const std::string& what,
                     bool evict_all, std::uint64_t evict_key) {
  serve::Client client("127.0.0.1", port);
  if (what == "stats") {
    const std::string body = client.call(serve::encode_stats_request());
    serve::wire::Reader r(body);
    std::cout << serve::StatsResponse::decode(r).to_text();
    return 0;
  }
  if (what == "evict") {
    serve::EvictRequest q;
    q.all = evict_all;
    q.key = evict_key;
    const std::string body = client.call(q.encode());
    serve::wire::Reader r(body);
    std::cout << serve::EvictResponse::decode(r).to_text();
    return 0;
  }
  const std::string body = client.call(serve::encode_shutdown_request());
  serve::wire::Reader r(body);
  std::cout << serve::ShutdownResponse::decode(r).to_text();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "info" && args.size() == 2) return cmd_info(args[1]);
    if (cmd == "validate" && (args.size() == 2 || args.size() == 3)) {
      const bool json = args.size() == 3 && args[2] == "--json";
      if (args.size() == 3 && !json) return usage();
      return cmd_validate(args[1], json);
    }
    if (cmd == "lint" && args.size() >= 2) {
      if (args[1] == "--rules" && args.size() == 2) return cmd_lint_rules();
      std::string faults_path, baseline_path, write_baseline_path, rules_spec;
      bool json = false, werror = false, absint = true;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--json") {
          json = true;
        } else if (args[i] == "--Werror") {
          werror = true;
        } else if (args[i] == "--absint") {
          absint = true;
        } else if (args[i] == "--no-absint") {
          absint = false;
        } else if (args[i] == "--faults" && i + 1 < args.size()) {
          faults_path = args[++i];
        } else if (args[i] == "--baseline" && i + 1 < args.size()) {
          baseline_path = args[++i];
        } else if (args[i] == "--write-baseline" && i + 1 < args.size()) {
          write_baseline_path = args[++i];
        } else if (args[i] == "--rules" && i + 1 < args.size()) {
          rules_spec = args[++i];
        } else {
          return usage();
        }
      }
      return cmd_lint(args[1], faults_path, json, werror, baseline_path,
                      write_baseline_path, rules_spec, absint);
    }
    if (cmd == "diagram" && args.size() == 3) {
      return cmd_diagram(args[1], args[2]);
    }
    if (cmd == "codegen" && (args.size() == 3 || args.size() == 4)) {
      const bool host = args.size() == 4 && args[3] == "--host";
      if (args.size() == 4 && !host) return usage();
      return cmd_codegen(args[1], args[2], host);
    }
    if (cmd == "profile" && args.size() == 3) {
      return cmd_profile(args[1], args[2]);
    }
    if (cmd == "efsm" && args.size() >= 3 && args[1] == "dump") {
      std::string machine;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--machine" && i + 1 < args.size()) {
          machine = args[++i];
        } else {
          return usage();
        }
      }
      return cmd_efsm_dump(args[2], machine);
    }
    if (cmd == "simulate" && args.size() >= 3 && args[1] == "tutmac") {
      long ms = 20;
      std::string faults_path;
      long seed = -1;  // negative: keep the plan's own seed
      std::size_t batch = 1;
      std::size_t threads = 0;
      std::optional<sim::Backend> backend = sim::Backend::Interpreter;
      std::string profile_spec;
      std::size_t i = 3;
      if (i < args.size() && args[i][0] != '-') ms = std::stol(args[i++]);
      while (i < args.size()) {
        if (args[i] == "--faults" && i + 1 < args.size()) {
          faults_path = args[++i];
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
          seed = std::stol(args[++i]);
        } else if (args[i] == "--batch" && i + 1 < args.size()) {
          batch = static_cast<std::size_t>(std::stoul(args[++i]));
        } else if (args[i] == "--threads" && i + 1 < args.size()) {
          threads = static_cast<std::size_t>(std::stoul(args[++i]));
        } else if (backend_flag(args, i, backend)) {
          if (!backend) return usage();
        } else if (args[i] == "--profile" && i + 1 < args.size()) {
          profile_spec = args[++i];
        } else if (args[i].rfind("--profile=", 0) == 0) {
          profile_spec = args[i].substr(10);
        } else {
          return usage();
        }
        ++i;
      }
      return cmd_simulate_tutmac(args[2], ms, faults_path, seed, batch,
                                 threads, *backend, profile_spec);
    }
    if (cmd == "campaign" && args.size() >= 3 && args[1] == "merge") {
      return cmd_campaign_merge(
          std::vector<std::string>(args.begin() + 2, args.end()));
    }
    if (cmd == "campaign" && args.size() >= 3 && args[1] == "tutmac") {
      sim::CampaignOptions options;
      std::optional<sim::Backend> backend = sim::Backend::Interpreter;
      std::string profile_spec;
      bool dry_run = false;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (backend_flag(args, i, backend)) {
          if (!backend) return usage();
        } else if (args[i] == "--profile" && i + 1 < args.size()) {
          profile_spec = args[++i];
        } else if (args[i].rfind("--profile=", 0) == 0) {
          profile_spec = args[i].substr(10);
        } else if (args[i] == "--threads" && i + 1 < args.size()) {
          options.threads = static_cast<std::size_t>(std::stoul(args[++i]));
        } else if (args[i] == "--shard" && i + 1 < args.size()) {
          const std::string& kn = args[++i];
          const std::size_t slash = kn.find('/');
          if (slash == std::string::npos) return usage();
          options.shard.index =
              static_cast<std::uint32_t>(std::stoul(kn.substr(0, slash)));
          options.shard.count =
              static_cast<std::uint32_t>(std::stoul(kn.substr(slash + 1)));
        } else if (args[i] == "--checkpoint" && i + 1 < args.size()) {
          options.checkpoint_path = args[++i];
        } else if (args[i] == "--resume") {
          options.resume = true;
        } else if (args[i] == "--samples" && i + 1 < args.size()) {
          options.samples_path = args[++i];
        } else if (args[i] == "--dry-run") {
          dry_run = true;
        } else {
          return usage();
        }
      }
      if (dry_run) return cmd_campaign_dry_run(args[2], profile_spec);
      return cmd_campaign_tutmac(args[2], options, *backend, profile_spec);
    }
    if (cmd == "serve") {
      std::uint16_t port = 0;
      std::string profile_spec;
      std::size_t threads = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--port" && i + 1 < args.size()) {
          port = static_cast<std::uint16_t>(std::stoul(args[++i]));
        } else if (args[i].rfind("--port=", 0) == 0) {
          port = static_cast<std::uint16_t>(std::stoul(args[i].substr(7)));
        } else if (args[i] == "--profile" && i + 1 < args.size()) {
          profile_spec = args[++i];
        } else if (args[i].rfind("--profile=", 0) == 0) {
          profile_spec = args[i].substr(10);
        } else if (args[i] == "--threads" && i + 1 < args.size()) {
          threads = static_cast<std::size_t>(std::stoul(args[++i]));
        } else {
          return usage();
        }
      }
      return cmd_serve(port, profile_spec, threads);
    }
    if (cmd == "client" && args.size() >= 2) {
      // --port is accepted anywhere in the argument list; everything else
      // keeps the single-shot commands' positional shape and flags.
      std::uint16_t port = 0;
      std::vector<std::string> rest;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--port" && i + 1 < args.size()) {
          port = static_cast<std::uint16_t>(std::stoul(args[++i]));
        } else if (args[i].rfind("--port=", 0) == 0) {
          port = static_cast<std::uint16_t>(std::stoul(args[i].substr(7)));
        } else {
          rest.push_back(args[i]);
        }
      }
      if (port == 0 || rest.empty()) return usage();
      const std::string& sub = rest[0];
      if (sub == "simulate" && rest.size() >= 3 && rest[1] == "tutmac") {
        long ms = 20;
        std::string faults_path;
        std::optional<sim::Backend> backend = sim::Backend::Interpreter;
        long seed = -1;
        std::size_t i = 3;
        if (i < rest.size() && rest[i][0] != '-') ms = std::stol(rest[i++]);
        while (i < rest.size()) {
          if (rest[i] == "--faults" && i + 1 < rest.size()) {
            faults_path = rest[++i];
          } else if (rest[i] == "--seed" && i + 1 < rest.size()) {
            seed = std::stol(rest[++i]);
          } else if (backend_flag(rest, i, backend)) {
            if (!backend) return usage();
          } else {
            return usage();
          }
          ++i;
        }
        return cmd_client_simulate_tutmac(port, rest[2], ms, faults_path,
                                          seed, *backend);
      }
      if (sub == "lint" && rest.size() >= 2) {
        bool json = false, werror = false;
        for (std::size_t i = 2; i < rest.size(); ++i) {
          if (rest[i] == "--json") {
            json = true;
          } else if (rest[i] == "--Werror") {
            werror = true;
          } else {
            return usage();
          }
        }
        return cmd_client_lint(port, rest[1], json, werror);
      }
      if (sub == "campaign" && rest.size() >= 3 && rest[1] == "tutmac") {
        std::uint32_t threads = 0;
        std::optional<sim::Backend> backend = sim::Backend::Interpreter;
        for (std::size_t i = 3; i < rest.size(); ++i) {
          if (rest[i] == "--threads" && i + 1 < rest.size()) {
            threads = static_cast<std::uint32_t>(std::stoul(rest[++i]));
          } else if (backend_flag(rest, i, backend)) {
            if (!backend) return usage();
          } else {
            return usage();
          }
        }
        return cmd_client_campaign_tutmac(port, rest[2], threads, *backend);
      }
      if (sub == "stats" && rest.size() == 1) {
        return cmd_client_admin(port, "stats", false, 0);
      }
      if (sub == "evict" && rest.size() <= 2) {
        const bool all = rest.size() == 1;
        const std::uint64_t key =
            all ? 0 : std::stoull(rest[1], nullptr, 16);
        return cmd_client_admin(port, "evict", all, key);
      }
      if (sub == "shutdown" && rest.size() == 1) {
        return cmd_client_admin(port, "shutdown", false, 0);
      }
      return usage();
    }
    if (cmd == "roundtrip" && args.size() == 2) {
      std::cout << uml::to_xml_string(*load_model(args[1]));
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "tut: " << e.what() << '\n';
    return 1;
  }
}
