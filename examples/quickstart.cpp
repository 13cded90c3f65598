// Quickstart: profile a directory of CSV files for inclusion dependencies.
//
//   ./quickstart [csv_directory]
//
// Without an argument, the example writes a tiny demo database (customers /
// orders / products) to a temp directory first, so it runs out of the box.
// With an argument it profiles your data: every *.csv file becomes a table
// (first line = header, types inferred).

#include <fstream>
#include <iostream>

#include "src/common/temp_dir.h"
#include "src/discovery/foreign_key.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"

namespace {

// Writes the demo CSV files and returns the directory.
spider::Result<std::filesystem::path> WriteDemoDatabase(
    spider::TempDir* dir) {
  auto write = [&](const char* name, const char* content) -> spider::Status {
    std::ofstream out(dir->FilePath(name));
    out << content;
    if (!out) return spider::Status::IOError(std::string("write ") + name);
    return spider::Status::OK();
  };
  SPIDER_RETURN_NOT_OK(write("customers.csv",
                             "customer_id,name,country\n"
                             "c001,alice,de\n"
                             "c002,bob,fr\n"
                             "c003,carol,de\n"
                             "c004,dave,us\n"));
  SPIDER_RETURN_NOT_OK(write("orders.csv",
                             "order_id,customer_id,product_id,quantity\n"
                             "o1,c001,p10,2\n"
                             "o2,c001,p11,1\n"
                             "o3,c003,p10,5\n"
                             "o4,c004,p12,1\n"));
  SPIDER_RETURN_NOT_OK(write("products.csv",
                             "product_id,label,price\n"
                             "p10,widget,9.99\n"
                             "p11,gadget,19.99\n"
                             "p12,gizmo,4.99\n"
                             "p13,doohickey,1.99\n"));
  return dir->path();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;

  // 1. Locate (or fabricate) the database to profile.
  std::unique_ptr<TempDir> demo_dir;
  std::filesystem::path data_dir;
  if (argc > 1) {
    data_dir = argv[1];
  } else {
    auto dir = TempDir::Make("spider-quickstart");
    if (!dir.ok()) {
      std::cerr << dir.status().ToString() << "\n";
      return 1;
    }
    demo_dir = std::move(dir).value();
    auto written = WriteDemoDatabase(demo_dir.get());
    if (!written.ok()) {
      std::cerr << written.status().ToString() << "\n";
      return 1;
    }
    data_dir = *written;
    std::cout << "(no directory given; using generated demo data)\n\n";
  }

  // 2. Load every CSV file as a table.
  auto catalog = ReadCsvDirectory(data_dir);
  if (!catalog.ok()) {
    std::cerr << "load failed: " << catalog.status().ToString() << "\n";
    return 1;
  }
  std::cout << "loaded " << (*catalog)->table_count() << " tables, "
            << (*catalog)->attribute_count() << " attributes\n";

  // 3. Discover all satisfied unary INDs with the brute-force algorithm
  // (any registered approach name works: see `spider approaches`).
  SpiderSession session(**catalog);
  RunOptions options;
  options.approach = "brute-force";
  options.generator.max_value_pretest = true;  // Sec. 4.1 pruning
  auto report = session.Run(options);
  if (!report.ok()) {
    std::cerr << "profiling failed: " << report.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n" << report->ToString() << "\nsatisfied INDs:\n";
  for (const Ind& ind : report->run.satisfied) {
    std::cout << "  " << ind.ToString() << "\n";
  }

  // 4. Turn INDs into foreign-key guesses; the run measured the distinct
  // counts that pick the tightest target.
  auto guesses = GuessForeignKeys(report->candidates, report->run.satisfied);
  std::cout << "\nforeign-key guesses:\n";
  for (const ForeignKey& fk : guesses) {
    std::cout << "  " << fk.ToString() << "\n";
  }
  return 0;
}
