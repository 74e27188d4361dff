module dpc/benchmark

go 1.23.0

require dpc v0.0.0

replace dpc => ../
