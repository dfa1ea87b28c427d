// Example: train a selection of the baseline zoo on the Weibo21-like
// corpus and compare performance (macro F1) and bias (FNED/FPED/Total).
//
//   ./build/examples/train_baseline_zoo
//   ./build/examples/train_baseline_zoo --models TextCNN,MDFEND,M3FEND
//       --scale 0.4 --epochs 10
#include <cstdio>
#include <sstream>

#include "common/flags.h"
#include "common/table.h"
#include "data/generator.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "text/frozen_encoder.h"

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtdbd;
  FlagParser flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.3);
  const int epochs = flags.GetInt("epochs", 8);
  const std::vector<std::string> model_names = SplitCsv(flags.GetString(
      "models", "TextCNN,BiGRU,BERT,EANN,MDFEND,M3FEND"));

  data::NewsDataset dataset =
      data::GenerateCorpus(data::Weibo21Config(scale, /*seed=*/3));
  Rng split_rng(5);
  data::DatasetSplits splits =
      data::StratifiedSplit(dataset, 0.7, 0.1, &split_rng);
  text::FrozenEncoder encoder(dataset.vocab->size(), 32, /*seed=*/9);

  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;

  TablePrinter table({"Model", "params", "F1", "FNED", "FPED", "Total"});
  for (const std::string& name : model_names) {
    config.seed += 1;
    auto model = models::CreateModel(name, config);
    TrainOptions options;
    options.epochs = epochs;
    // EANN/EDDFN train their adversarial discriminator alongside.
    if (name == "EANN" || name == "EDDFN") options.domain_loss_weight = 0.5f;
    TrainSupervised(model.get(), splits.train, nullptr, options);
    auto report = EvaluateModel(model.get(), splits.test);
    table.AddRow({name, std::to_string(model->ParameterCount()),
                  TablePrinter::Fmt(report.f1),
                  TablePrinter::Fmt(report.fned),
                  TablePrinter::Fmt(report.fped),
                  TablePrinter::Fmt(report.Total())});
    std::printf("trained %-12s %s\n", name.c_str(),
                report.Summary().c_str());
  }
  std::printf("\n");
  table.Print();
  return 0;
}
