#include "trace/trace_io.h"

#include <fstream>
#include <map>
#include <stdexcept>

#include "io/csv.h"
#include "io/numeric.h"

namespace locpriv::trace {
namespace {

/// Groups rows into traces preserving first-seen user order.
class DatasetBuilder {
 public:
  void add(const std::string& user, Event e) {
    auto it = index_.find(user);
    if (it == index_.end()) {
      order_.push_back(user);
      index_.emplace(user, std::vector<Event>{});
      it = index_.find(user);
    }
    it->second.push_back(e);
  }

  [[nodiscard]] Dataset build() {
    Dataset d;
    for (const std::string& user : order_) {
      d.add(Trace(user, std::move(index_.at(user))));
    }
    return d;
  }

 private:
  std::map<std::string, std::vector<Event>> index_;
  std::vector<std::string> order_;
};

double parse_double(const std::string& s, std::size_t line_no, const char* what) {
  const std::optional<double> v = io::parse_double(s);
  if (!v.has_value()) {
    throw std::runtime_error("dataset csv: bad " + std::string(what) + " '" + s + "' at line " +
                             std::to_string(line_no));
  }
  return *v;
}

Timestamp parse_time(const std::string& s, std::size_t line_no) {
  const std::optional<long long> v = io::parse_int64(s);
  if (!v.has_value()) {
    throw std::runtime_error("dataset csv: bad timestamp '" + s + "' at line " +
                             std::to_string(line_no));
  }
  return *v;
}

std::string fmt(double v) { return io::format_double_fixed(v, 6); }

void check_header(const io::CsvRow& header, const char* c2, const char* c3) {
  if (header.size() != 4 || header[0] != "user" || header[1] != "timestamp" || header[2] != c2 ||
      header[3] != c3) {
    throw std::runtime_error(std::string("dataset csv: expected header user,timestamp,") + c2 +
                             "," + c3);
  }
}

}  // namespace

void write_dataset_csv(std::ostream& out, const Dataset& d) {
  out << "user,timestamp,x,y\n";
  for (const Trace& t : d) {
    for (const Event& e : t) {
      out << io::format_csv_row({t.user_id(), std::to_string(e.time), fmt(e.location.x),
                                 fmt(e.location.y)})
          << '\n';
    }
  }
}

namespace {

void write_csv_file(const std::string& path, const Dataset& d) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_dataset: cannot open " + path);
  write_dataset_csv(out, d);
}

Dataset read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_dataset: cannot open " + path);
  return read_dataset_csv(in);
}

bool has_csv_extension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

}  // namespace

Dataset load_dataset(const std::string& path, const LoadOptions& opts) {
  const bool binary = opts.format == LoadOptions::Format::kBinary ||
                      (opts.format == LoadOptions::Format::kAuto && is_binary_dataset_file(path));
  if (binary) return Dataset(load_store(path, opts));
  // CSV parses row-major; re-house the traces in a fresh arena so every
  // load path hands back contiguous columns.
  return Dataset(read_csv_file(path).to_store());
}

void save_dataset(const std::string& path, const Dataset& d, const SaveOptions& opts) {
  const bool csv = opts.format == SaveOptions::Format::kCsv ||
                   (opts.format == SaveOptions::Format::kAuto && has_csv_extension(path));
  if (csv) {
    write_csv_file(path, d);
  } else {
    save_store(path, *d.to_store());
  }
}

Dataset read_dataset_csv(std::istream& in) {
  const std::vector<io::CsvRow> rows = io::read_csv(in);
  if (rows.empty()) throw std::runtime_error("dataset csv: empty input");
  check_header(rows.front(), "x", "y");
  DatasetBuilder builder;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const io::CsvRow& row = rows[i];
    if (row.size() != 4) {
      throw std::runtime_error("dataset csv: expected 4 fields at line " + std::to_string(i + 1));
    }
    builder.add(row[0], Event{parse_time(row[1], i + 1),
                              {parse_double(row[2], i + 1, "x"), parse_double(row[3], i + 1, "y")}});
  }
  return builder.build();
}

void write_dataset_geo_csv(std::ostream& out, const Dataset& d, const geo::LocalProjection& proj) {
  out << "user,timestamp,lat,lng\n";
  for (const Trace& t : d) {
    for (const Event& e : t) {
      const geo::LatLng c = proj.to_geo(e.location);
      out << io::format_csv_row({t.user_id(), std::to_string(e.time), fmt(c.lat), fmt(c.lng)})
          << '\n';
    }
  }
}

Dataset read_dataset_geo_csv(std::istream& in, const geo::LocalProjection& proj) {
  const std::vector<io::CsvRow> rows = io::read_csv(in);
  if (rows.empty()) throw std::runtime_error("dataset csv: empty input");
  check_header(rows.front(), "lat", "lng");
  DatasetBuilder builder;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const io::CsvRow& row = rows[i];
    if (row.size() != 4) {
      throw std::runtime_error("dataset csv: expected 4 fields at line " + std::to_string(i + 1));
    }
    const geo::LatLng c{parse_double(row[2], i + 1, "lat"), parse_double(row[3], i + 1, "lng")};
    if (!c.is_valid()) {
      throw std::runtime_error("dataset csv: out-of-range coordinate at line " +
                               std::to_string(i + 1));
    }
    builder.add(row[0], Event{parse_time(row[1], i + 1), proj.to_plane(c)});
  }
  return builder.build();
}

}  // namespace locpriv::trace
