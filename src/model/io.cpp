#include "model/io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace rtpool::model {

namespace {

/// Parse "key=value" tokens from the remainder of a line.
std::map<std::string, std::string> parse_kv(std::istringstream& line, int lineno) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (line >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw ParseError("line " + std::to_string(lineno) +
                       ": expected key=value, got '" + token + "'");
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

const std::string& require(const std::map<std::string, std::string>& kv,
                           const std::string& key, int lineno) {
  const auto it = kv.find(key);
  if (it == kv.end())
    throw ParseError("line " + std::to_string(lineno) + ": missing '" + key + "='");
  return it->second;
}

double to_double(const std::string& s, int lineno) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError("line " + std::to_string(lineno) + ": bad number '" + s + "'");
  }
}

long to_long(const std::string& s, int lineno) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError("line " + std::to_string(lineno) + ": bad integer '" + s + "'");
  }
}

/// to_long narrowed to [lo, hi]: a value outside is an error, not a wrap.
long to_long_in(const std::string& key, const std::string& s, long lo, long hi,
                int lineno) {
  const long v = to_long(s, lineno);
  if (v < lo || v > hi)
    throw ParseError("line " + std::to_string(lineno) + ": " + key + " out of range '" +
                     s + "'");
  return v;
}

}  // namespace

void write_task_set(std::ostream& os, const TaskSet& ts) {
  os << "# rtpool task set\n";
  os << "taskset cores=" << ts.core_count() << "\n";
  os << std::setprecision(17);
  for (const DagTask& t : ts.tasks()) {
    os << "task name=" << t.name() << " period=" << t.period()
       << " deadline=" << t.deadline() << " priority=" << t.priority()
       << " nodes=" << t.node_count() << "\n";
    for (NodeId v = 0; v < t.node_count(); ++v) {
      os << "node " << v << " wcet=" << t.wcet(v) << " type=" << to_string(t.type(v))
         << "\n";
    }
    for (const graph::Edge& e : t.dag().edges())
      os << "edge " << e.from << " " << e.to << "\n";
    os << "endtask\n";
  }
}

void save_task_set(const std::string& path, const TaskSet& ts) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_task_set: cannot open " + path);
  write_task_set(out, ts);
}

TaskSet read_task_set(std::istream& is) {
  std::optional<TaskSet> ts;

  // Per-task accumulation state.
  bool in_task = false;
  std::string task_name;
  double period = 0.0;
  double deadline = 0.0;
  int priority = 0;
  std::size_t declared_nodes = 0;
  std::vector<Node> nodes;
  std::vector<graph::Edge> edges;
  std::vector<int> edge_lines;  // Source line of each edge, for errors.

  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) continue;     // blank line
    if (keyword[0] == '#') continue;      // comment

    if (keyword == "taskset") {
      if (ts.has_value())
        throw ParseError("line " + std::to_string(lineno) + ": duplicate 'taskset'");
      const auto kv = parse_kv(line, lineno);
      const long cores = to_long(require(kv, "cores", lineno), lineno);
      if (cores <= 0)
        throw ParseError("line " + std::to_string(lineno) + ": cores must be > 0");
      ts.emplace(static_cast<std::size_t>(cores));
    } else if (keyword == "task") {
      if (!ts.has_value())
        throw ParseError("line " + std::to_string(lineno) + ": 'task' before 'taskset'");
      if (in_task)
        throw ParseError("line " + std::to_string(lineno) + ": nested 'task'");
      const auto kv = parse_kv(line, lineno);
      task_name = require(kv, "name", lineno);
      period = to_double(require(kv, "period", lineno), lineno);
      deadline = to_double(require(kv, "deadline", lineno), lineno);
      priority = static_cast<int>(to_long_in("priority", require(kv, "priority", lineno),
                                             std::numeric_limits<int>::min(),
                                             std::numeric_limits<int>::max(), lineno));
      declared_nodes = static_cast<std::size_t>(
          to_long_in("nodes", require(kv, "nodes", lineno), 0,
                     std::numeric_limits<graph::NodeId>::max(), lineno));
      nodes.clear();
      edges.clear();
      edge_lines.clear();
      in_task = true;
    } else if (keyword == "node") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": 'node' outside task");
      long id = 0;
      if (!(line >> id))
        throw ParseError("line " + std::to_string(lineno) + ": missing node id");
      if (id != static_cast<long>(nodes.size()))
        throw ParseError("line " + std::to_string(lineno) +
                         ": node ids must be dense and in order");
      const auto kv = parse_kv(line, lineno);
      Node n;
      n.wcet = to_double(require(kv, "wcet", lineno), lineno);
      try {
        n.type = node_type_from_string(require(kv, "type", lineno));
      } catch (const std::invalid_argument& e) {
        throw ParseError("line " + std::to_string(lineno) + ": " + e.what());
      }
      nodes.push_back(n);
    } else if (keyword == "edge") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": 'edge' outside task");
      long from = 0;
      long to = 0;
      if (!(line >> from >> to))
        throw ParseError("line " + std::to_string(lineno) + ": edge needs two node ids");
      if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= nodes.size() ||
          static_cast<std::size_t>(to) >= nodes.size())
        throw ParseError("line " + std::to_string(lineno) + ": edge id out of range");
      edges.push_back({static_cast<graph::NodeId>(from), static_cast<graph::NodeId>(to)});
      edge_lines.push_back(lineno);
    } else if (keyword == "endtask") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": stray 'endtask'");
      if (nodes.size() != declared_nodes)
        throw ParseError("line " + std::to_string(lineno) + ": task '" + task_name +
                         "' declared " + std::to_string(declared_nodes) +
                         " nodes but has " + std::to_string(nodes.size()));
      graph::Dag dag;
      try {
        dag = graph::Dag(nodes.size(), edges);
      } catch (const graph::EdgeError& e) {
        // Self-loops / duplicate edges are structural input errors.
        throw ParseError("line " + std::to_string(edge_lines[e.index]) + ": " +
                         e.what());
      }
      ts->add(DagTask(task_name, std::move(dag), std::move(nodes), period, deadline,
                      priority));
      in_task = false;
    } else {
      throw ParseError("line " + std::to_string(lineno) + ": unknown keyword '" +
                       keyword + "'");
    }
  }
  if (in_task) throw ParseError("unexpected end of input inside task '" + task_name + "'");
  if (!ts.has_value()) throw ParseError("input contains no 'taskset' header");
  return *std::move(ts);
}

TaskSet load_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_task_set: cannot open " + path);
  return read_task_set(in);
}

}  // namespace rtpool::model
