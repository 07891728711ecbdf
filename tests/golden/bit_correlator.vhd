-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'bit_correlator'
-- data path: 32 nodes (16 soft, 16 hard), 5 pipeline stages
-- netlist: 88 cells, 36 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node1 is
  port (
    A0 : in unsigned(7 downto 0);
    t5_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node1;

architecture rtl of bit_correlator_dp_node1 is
  signal t4 : unsigned(0 downto 0);
  signal t5 : unsigned(0 downto 0);
begin
  t4 <= A0(0 downto 0) and to_unsigned(1, 1);
  t5 <= "1" when signed(resize(t4, 2)) = to_signed(1, 2) else "0";
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb3 is
  port (
    n34_pipe : in unsigned(0 downto 0);
    cnt_2_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_mux_bb3;

architecture rtl of bit_correlator_dp_mux_bb3 is
  signal cnt_2 : unsigned(0 downto 0);
begin
  cnt_2 <= to_unsigned(1, 1) when n34_pipe /= 0 else to_unsigned(0, 1);
  cnt_2_out <= cnt_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node3 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t9_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node3;

architecture rtl of bit_correlator_dp_node3 is
  signal t7 : unsigned(6 downto 0);
  signal t8 : unsigned(0 downto 0);
  signal t9 : unsigned(0 downto 0);
begin
  t7 <= A0_pipe(7 downto 1);
  t8 <= t7(0 downto 0) and to_unsigned(1, 1);
  t9 <= "1" when signed(resize(t8, 2)) = to_signed(0, 2) else "0";
  t9_out <= t9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node4 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    cnt_2 : in unsigned(0 downto 0);
    t10_s1_out : out unsigned(1 downto 0)
  );
end entity bit_correlator_dp_node4;

architecture rtl of bit_correlator_dp_node4 is
  signal t10 : unsigned(1 downto 0);
  signal t10_s1 : unsigned(1 downto 0) := (others => '0');
begin
  t10 <= resize(cnt_2, 2) + to_unsigned(1, 2);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t10_s1 <= t10;
      end if;
    end if;
  end process;
  t10_s1_out <= t10_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb6 is
  port (
    n45_pipe_s1 : in unsigned(0 downto 0);
    t10_s1 : in unsigned(1 downto 0);
    cnt_2_pipe_s1 : in unsigned(0 downto 0);
    cnt_4_out : out unsigned(1 downto 0)
  );
end entity bit_correlator_dp_mux_bb6;

architecture rtl of bit_correlator_dp_mux_bb6 is
  signal cnt_4 : unsigned(1 downto 0);
begin
  cnt_4 <= t10_s1 when n45_pipe_s1 /= 0 else resize(cnt_2_pipe_s1, 2);
  cnt_4_out <= cnt_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node6 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t15_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node6;

architecture rtl of bit_correlator_dp_node6 is
  signal t13 : unsigned(5 downto 0);
  signal t14 : unsigned(0 downto 0);
  signal t15 : unsigned(0 downto 0);
begin
  t13 <= A0_pipe(7 downto 2);
  t14 <= t13(0 downto 0) and to_unsigned(1, 1);
  t15 <= "1" when signed(resize(t14, 2)) = to_signed(1, 2) else "0";
  t15_out <= t15;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node7 is
  port (
    cnt_4 : in unsigned(1 downto 0);
    t16_out : out unsigned(1 downto 0)
  );
end entity bit_correlator_dp_node7;

architecture rtl of bit_correlator_dp_node7 is
  signal t16 : unsigned(1 downto 0);
begin
  t16 <= cnt_4 + to_unsigned(1, 2);
  t16_out <= t16;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb9 is
  port (
    cnt_4_pipe : in unsigned(1 downto 0);
    t16 : in unsigned(1 downto 0);
    n51_pipe_s1 : in unsigned(0 downto 0);
    cnt_6_out : out unsigned(1 downto 0)
  );
end entity bit_correlator_dp_mux_bb9;

architecture rtl of bit_correlator_dp_mux_bb9 is
  signal cnt_6 : unsigned(1 downto 0);
begin
  cnt_6 <= t16 when n51_pipe_s1 /= 0 else cnt_4_pipe;
  cnt_6_out <= cnt_6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node9 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t21_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node9;

architecture rtl of bit_correlator_dp_node9 is
  signal t19 : unsigned(4 downto 0);
  signal t20 : unsigned(0 downto 0);
  signal t21 : unsigned(0 downto 0);
begin
  t19 <= A0_pipe(7 downto 3);
  t20 <= t19(0 downto 0) and to_unsigned(1, 1);
  t21 <= "1" when signed(resize(t20, 2)) = to_signed(0, 2) else "0";
  t21_out <= t21;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node10 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    cnt_6 : in unsigned(1 downto 0);
    t22_s2_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_node10;

architecture rtl of bit_correlator_dp_node10 is
  signal t22 : unsigned(2 downto 0);
  signal t22_s2 : unsigned(2 downto 0) := (others => '0');
begin
  t22 <= resize(cnt_6, 3) + to_unsigned(1, 3);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t22_s2 <= t22;
      end if;
    end if;
  end process;
  t22_s2_out <= t22_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb12 is
  port (
    n56_pipe_s2 : in unsigned(0 downto 0);
    t22_s2 : in unsigned(2 downto 0);
    cnt_6_pipe_s2 : in unsigned(1 downto 0);
    cnt_8_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_mux_bb12;

architecture rtl of bit_correlator_dp_mux_bb12 is
  signal cnt_8 : unsigned(2 downto 0);
begin
  cnt_8 <= t22_s2 when n56_pipe_s2 /= 0 else resize(cnt_6_pipe_s2, 3);
  cnt_8_out <= cnt_8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node12 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t27_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node12;

architecture rtl of bit_correlator_dp_node12 is
  signal t25 : unsigned(3 downto 0);
  signal t26 : unsigned(0 downto 0);
  signal t27 : unsigned(0 downto 0);
begin
  t25 <= A0_pipe(7 downto 4);
  t26 <= t25(0 downto 0) and to_unsigned(1, 1);
  t27 <= "1" when signed(resize(t26, 2)) = to_signed(1, 2) else "0";
  t27_out <= t27;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node13 is
  port (
    cnt_8 : in unsigned(2 downto 0);
    t28_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_node13;

architecture rtl of bit_correlator_dp_node13 is
  signal t28 : unsigned(2 downto 0);
begin
  t28 <= cnt_8 + to_unsigned(1, 3);
  t28_out <= t28;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb15 is
  port (
    cnt_8_pipe : in unsigned(2 downto 0);
    t28 : in unsigned(2 downto 0);
    n63_pipe_s2 : in unsigned(0 downto 0);
    cnt_10_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_mux_bb15;

architecture rtl of bit_correlator_dp_mux_bb15 is
  signal cnt_10 : unsigned(2 downto 0);
begin
  cnt_10 <= t28 when n63_pipe_s2 /= 0 else cnt_8_pipe;
  cnt_10_out <= cnt_10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node15 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t33_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node15;

architecture rtl of bit_correlator_dp_node15 is
  signal t31 : unsigned(2 downto 0);
  signal t32 : unsigned(0 downto 0);
  signal t33 : unsigned(0 downto 0);
begin
  t31 <= A0_pipe(7 downto 5);
  t32 <= t31(0 downto 0) and to_unsigned(1, 1);
  t33 <= "1" when signed(resize(t32, 2)) = to_signed(1, 2) else "0";
  t33_out <= t33;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node16 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    cnt_10 : in unsigned(2 downto 0);
    t34_s3_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_node16;

architecture rtl of bit_correlator_dp_node16 is
  signal t34 : unsigned(2 downto 0);
  signal t34_s3 : unsigned(2 downto 0) := (others => '0');
begin
  t34 <= cnt_10 + to_unsigned(1, 3);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t34_s3 <= t34;
      end if;
    end if;
  end process;
  t34_s3_out <= t34_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb18 is
  port (
    n69_pipe_s3 : in unsigned(0 downto 0);
    t34_s3 : in unsigned(2 downto 0);
    cnt_10_pipe_s3 : in unsigned(2 downto 0);
    cnt_12_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_mux_bb18;

architecture rtl of bit_correlator_dp_mux_bb18 is
  signal cnt_12 : unsigned(2 downto 0);
begin
  cnt_12 <= t34_s3 when n69_pipe_s3 /= 0 else cnt_10_pipe_s3;
  cnt_12_out <= cnt_12;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node18 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t39_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node18;

architecture rtl of bit_correlator_dp_node18 is
  signal t37 : unsigned(1 downto 0);
  signal t38 : unsigned(0 downto 0);
  signal t39 : unsigned(0 downto 0);
begin
  t37 <= A0_pipe(7 downto 6);
  t38 <= t37(0 downto 0) and to_unsigned(1, 1);
  t39 <= "1" when signed(resize(t38, 2)) = to_signed(0, 2) else "0";
  t39_out <= t39;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node19 is
  port (
    cnt_12 : in unsigned(2 downto 0);
    t40_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_node19;

architecture rtl of bit_correlator_dp_node19 is
  signal t40 : unsigned(2 downto 0);
begin
  t40 <= cnt_12 + to_unsigned(1, 3);
  t40_out <= t40;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb21 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    cnt_12_pipe : in unsigned(2 downto 0);
    t40 : in unsigned(2 downto 0);
    n77_pipe_s3 : in unsigned(0 downto 0);
    cnt_14_out : out unsigned(2 downto 0);
    cnt_14_s4_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_mux_bb21;

architecture rtl of bit_correlator_dp_mux_bb21 is
  signal cnt_14 : unsigned(2 downto 0);
  signal cnt_14_s4 : unsigned(2 downto 0) := (others => '0');
begin
  cnt_14 <= t40 when n77_pipe_s3 /= 0 else cnt_12_pipe;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        cnt_14_s4 <= cnt_14;
      end if;
    end if;
  end process;
  cnt_14_out <= cnt_14;
  cnt_14_s4_out <= cnt_14_s4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node21 is
  port (
    A0_pipe : in unsigned(7 downto 0);
    t45_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_node21;

architecture rtl of bit_correlator_dp_node21 is
  signal t43 : unsigned(0 downto 0);
  signal t44 : unsigned(0 downto 0);
  signal t45 : unsigned(0 downto 0);
begin
  t43 <= A0_pipe(7 downto 7);
  t44 <= t43 and to_unsigned(1, 1);
  t45 <= "1" when signed(resize(t44, 2)) = to_signed(1, 2) else "0";
  t45_out <= t45;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node22 is
  port (
    cnt_14_s4 : in unsigned(2 downto 0);
    t46_out : out unsigned(3 downto 0)
  );
end entity bit_correlator_dp_node22;

architecture rtl of bit_correlator_dp_node22 is
  signal t46 : unsigned(3 downto 0);
begin
  t46 <= resize(cnt_14_s4, 4) + to_unsigned(1, 4);
  t46_out <= t46;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_mux_bb24 is
  port (
    t46 : in unsigned(3 downto 0);
    pipe_s4 : in unsigned(0 downto 0);
    cnt_14_pipe_s4 : in unsigned(2 downto 0);
    cnt_16_out : out unsigned(3 downto 0)
  );
end entity bit_correlator_dp_mux_bb24;

architecture rtl of bit_correlator_dp_mux_bb24 is
  signal cnt_16 : unsigned(3 downto 0);
begin
  cnt_16 <= t46 when pipe_s4 /= 0 else resize(cnt_14_pipe_s4, 4);
  cnt_16_out <= cnt_16;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_node24 is
  port (
    cnt_16 : in unsigned(3 downto 0);
    t48_out : out unsigned(3 downto 0)
  );
end entity bit_correlator_dp_node24;

architecture rtl of bit_correlator_dp_node24 is
  signal t48 : unsigned(3 downto 0);
begin
  t48 <= cnt_16;
  t48_out <= t48;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb3 is
  port (
    A0 : in unsigned(7 downto 0);
    t5 : in unsigned(0 downto 0);
    A0_pipe_out : out unsigned(7 downto 0);
    n34_pipe_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_pipe_bb3;

architecture rtl of bit_correlator_dp_pipe_bb3 is
  signal A0_pipe : unsigned(7 downto 0);
  signal n34_pipe : unsigned(0 downto 0);
begin
  A0_pipe <= A0;
  n34_pipe <= t5;
  A0_pipe_out <= A0_pipe;
  n34_pipe_out <= n34_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb6 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t9 : in unsigned(0 downto 0);
    cnt_2 : in unsigned(0 downto 0);
    n45_pipe_s1_out : out unsigned(0 downto 0);
    cnt_2_pipe_s1_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_pipe_bb6;

architecture rtl of bit_correlator_dp_pipe_bb6 is
  signal n45_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal cnt_2_pipe_s1 : unsigned(0 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n45_pipe_s1 <= t9;
        cnt_2_pipe_s1 <= cnt_2;
      end if;
    end if;
  end process;
  n45_pipe_s1_out <= n45_pipe_s1;
  cnt_2_pipe_s1_out <= cnt_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb9 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t15 : in unsigned(0 downto 0);
    cnt_4 : in unsigned(1 downto 0);
    cnt_4_pipe_out : out unsigned(1 downto 0);
    n51_pipe_s1_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_pipe_bb9;

architecture rtl of bit_correlator_dp_pipe_bb9 is
  signal cnt_4_pipe : unsigned(1 downto 0);
  signal n51_pipe_s1 : unsigned(0 downto 0) := (others => '0');
begin
  cnt_4_pipe <= cnt_4;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n51_pipe_s1 <= t15;
      end if;
    end if;
  end process;
  cnt_4_pipe_out <= cnt_4_pipe;
  n51_pipe_s1_out <= n51_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t21 : in unsigned(0 downto 0);
    cnt_6 : in unsigned(1 downto 0);
    n56_pipe_s2_out : out unsigned(0 downto 0);
    cnt_6_pipe_s2_out : out unsigned(1 downto 0)
  );
end entity bit_correlator_dp_pipe_bb12;

architecture rtl of bit_correlator_dp_pipe_bb12 is
  signal n55_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal n56_pipe_s2 : unsigned(0 downto 0) := (others => '0');
  signal cnt_6_pipe_s2 : unsigned(1 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n55_pipe_s1 <= t21;
        n56_pipe_s2 <= n55_pipe_s1;
        cnt_6_pipe_s2 <= cnt_6;
      end if;
    end if;
  end process;
  n56_pipe_s2_out <= n56_pipe_s2;
  cnt_6_pipe_s2_out <= cnt_6_pipe_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb15 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t27 : in unsigned(0 downto 0);
    cnt_8 : in unsigned(2 downto 0);
    cnt_8_pipe_out : out unsigned(2 downto 0);
    n63_pipe_s2_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_pipe_bb15;

architecture rtl of bit_correlator_dp_pipe_bb15 is
  signal cnt_8_pipe : unsigned(2 downto 0);
  signal n62_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal n63_pipe_s2 : unsigned(0 downto 0) := (others => '0');
begin
  cnt_8_pipe <= cnt_8;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n62_pipe_s1 <= t27;
        n63_pipe_s2 <= n62_pipe_s1;
      end if;
    end if;
  end process;
  cnt_8_pipe_out <= cnt_8_pipe;
  n63_pipe_s2_out <= n63_pipe_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb18 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t33 : in unsigned(0 downto 0);
    cnt_10 : in unsigned(2 downto 0);
    n69_pipe_s3_out : out unsigned(0 downto 0);
    cnt_10_pipe_s3_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_pipe_bb18;

architecture rtl of bit_correlator_dp_pipe_bb18 is
  signal n67_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal n68_pipe_s2 : unsigned(0 downto 0) := (others => '0');
  signal n69_pipe_s3 : unsigned(0 downto 0) := (others => '0');
  signal cnt_10_pipe_s3 : unsigned(2 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n67_pipe_s1 <= t33;
        n68_pipe_s2 <= n67_pipe_s1;
        n69_pipe_s3 <= n68_pipe_s2;
        cnt_10_pipe_s3 <= cnt_10;
      end if;
    end if;
  end process;
  n69_pipe_s3_out <= n69_pipe_s3;
  cnt_10_pipe_s3_out <= cnt_10_pipe_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb21 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t39 : in unsigned(0 downto 0);
    cnt_12 : in unsigned(2 downto 0);
    cnt_12_pipe_out : out unsigned(2 downto 0);
    n77_pipe_s3_out : out unsigned(0 downto 0)
  );
end entity bit_correlator_dp_pipe_bb21;

architecture rtl of bit_correlator_dp_pipe_bb21 is
  signal cnt_12_pipe : unsigned(2 downto 0);
  signal n75_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal n76_pipe_s2 : unsigned(0 downto 0) := (others => '0');
  signal n77_pipe_s3 : unsigned(0 downto 0) := (others => '0');
begin
  cnt_12_pipe <= cnt_12;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n75_pipe_s1 <= t39;
        n76_pipe_s2 <= n75_pipe_s1;
        n77_pipe_s3 <= n76_pipe_s2;
      end if;
    end if;
  end process;
  cnt_12_pipe_out <= cnt_12_pipe;
  n77_pipe_s3_out <= n77_pipe_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp_pipe_bb24 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t45 : in unsigned(0 downto 0);
    cnt_14 : in unsigned(2 downto 0);
    pipe_s4_out : out unsigned(0 downto 0);
    cnt_14_pipe_s4_out : out unsigned(2 downto 0)
  );
end entity bit_correlator_dp_pipe_bb24;

architecture rtl of bit_correlator_dp_pipe_bb24 is
  signal n82_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal n83_pipe_s2 : unsigned(0 downto 0) := (others => '0');
  signal n84_pipe_s3 : unsigned(0 downto 0) := (others => '0');
  signal pipe_s4 : unsigned(0 downto 0) := (others => '0');
  signal cnt_14_pipe_s4 : unsigned(2 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n82_pipe_s1 <= t45;
        n83_pipe_s2 <= n82_pipe_s1;
        n84_pipe_s3 <= n83_pipe_s2;
        pipe_s4 <= n84_pipe_s3;
        cnt_14_pipe_s4 <= cnt_14;
      end if;
    end if;
  end process;
  pipe_s4_out <= pipe_s4;
  cnt_14_pipe_s4_out <= cnt_14_pipe_s4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity bit_correlator_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    C_o0 : out unsigned(3 downto 0)
  );
end entity bit_correlator_dp;

architecture rtl of bit_correlator_dp is
  signal A0_pipe : unsigned(7 downto 0);
  signal t45 : unsigned(0 downto 0);
  signal t33 : unsigned(0 downto 0);
  signal t27 : unsigned(0 downto 0);
  signal t15 : unsigned(0 downto 0);
  signal t5 : unsigned(0 downto 0);
  signal n34_pipe : unsigned(0 downto 0);
  signal t39 : unsigned(0 downto 0);
  signal t21 : unsigned(0 downto 0);
  signal t9 : unsigned(0 downto 0);
  signal cnt_2 : unsigned(0 downto 0);
  signal n45_pipe_s1 : unsigned(0 downto 0);
  signal t10_s1 : unsigned(1 downto 0);
  signal cnt_2_pipe_s1 : unsigned(0 downto 0);
  signal cnt_4 : unsigned(1 downto 0);
  signal cnt_4_pipe : unsigned(1 downto 0);
  signal t16 : unsigned(1 downto 0);
  signal n51_pipe_s1 : unsigned(0 downto 0);
  signal cnt_6 : unsigned(1 downto 0);
  signal n56_pipe_s2 : unsigned(0 downto 0);
  signal t22_s2 : unsigned(2 downto 0);
  signal cnt_6_pipe_s2 : unsigned(1 downto 0);
  signal cnt_8 : unsigned(2 downto 0);
  signal cnt_8_pipe : unsigned(2 downto 0);
  signal t28 : unsigned(2 downto 0);
  signal n63_pipe_s2 : unsigned(0 downto 0);
  signal cnt_10 : unsigned(2 downto 0);
  signal n69_pipe_s3 : unsigned(0 downto 0);
  signal t34_s3 : unsigned(2 downto 0);
  signal cnt_10_pipe_s3 : unsigned(2 downto 0);
  signal cnt_12 : unsigned(2 downto 0);
  signal cnt_12_pipe : unsigned(2 downto 0);
  signal t40 : unsigned(2 downto 0);
  signal n77_pipe_s3 : unsigned(0 downto 0);
  signal cnt_14 : unsigned(2 downto 0);
  signal cnt_14_s4 : unsigned(2 downto 0);
  signal t46 : unsigned(3 downto 0);
  signal pipe_s4 : unsigned(0 downto 0);
  signal cnt_14_pipe_s4 : unsigned(2 downto 0);
  signal cnt_16 : unsigned(3 downto 0);
  signal t48 : unsigned(3 downto 0);
begin
  u_node1 : entity work.bit_correlator_dp_node1
    port map (A0 => A0, t5_out => t5);
  u_mux_bb3 : entity work.bit_correlator_dp_mux_bb3
    port map (n34_pipe => n34_pipe, cnt_2_out => cnt_2);
  u_node3 : entity work.bit_correlator_dp_node3
    port map (A0_pipe => A0_pipe, t9_out => t9);
  u_node4 : entity work.bit_correlator_dp_node4
    port map (clk => clk, ce => ce, cnt_2 => cnt_2, t10_s1_out => t10_s1);
  u_mux_bb6 : entity work.bit_correlator_dp_mux_bb6
    port map (n45_pipe_s1 => n45_pipe_s1, t10_s1 => t10_s1, cnt_2_pipe_s1 => cnt_2_pipe_s1, cnt_4_out => cnt_4);
  u_node6 : entity work.bit_correlator_dp_node6
    port map (A0_pipe => A0_pipe, t15_out => t15);
  u_node7 : entity work.bit_correlator_dp_node7
    port map (cnt_4 => cnt_4, t16_out => t16);
  u_mux_bb9 : entity work.bit_correlator_dp_mux_bb9
    port map (cnt_4_pipe => cnt_4_pipe, t16 => t16, n51_pipe_s1 => n51_pipe_s1, cnt_6_out => cnt_6);
  u_node9 : entity work.bit_correlator_dp_node9
    port map (A0_pipe => A0_pipe, t21_out => t21);
  u_node10 : entity work.bit_correlator_dp_node10
    port map (clk => clk, ce => ce, cnt_6 => cnt_6, t22_s2_out => t22_s2);
  u_mux_bb12 : entity work.bit_correlator_dp_mux_bb12
    port map (n56_pipe_s2 => n56_pipe_s2, t22_s2 => t22_s2, cnt_6_pipe_s2 => cnt_6_pipe_s2, cnt_8_out => cnt_8);
  u_node12 : entity work.bit_correlator_dp_node12
    port map (A0_pipe => A0_pipe, t27_out => t27);
  u_node13 : entity work.bit_correlator_dp_node13
    port map (cnt_8 => cnt_8, t28_out => t28);
  u_mux_bb15 : entity work.bit_correlator_dp_mux_bb15
    port map (cnt_8_pipe => cnt_8_pipe, t28 => t28, n63_pipe_s2 => n63_pipe_s2, cnt_10_out => cnt_10);
  u_node15 : entity work.bit_correlator_dp_node15
    port map (A0_pipe => A0_pipe, t33_out => t33);
  u_node16 : entity work.bit_correlator_dp_node16
    port map (clk => clk, ce => ce, cnt_10 => cnt_10, t34_s3_out => t34_s3);
  u_mux_bb18 : entity work.bit_correlator_dp_mux_bb18
    port map (n69_pipe_s3 => n69_pipe_s3, t34_s3 => t34_s3, cnt_10_pipe_s3 => cnt_10_pipe_s3, cnt_12_out => cnt_12);
  u_node18 : entity work.bit_correlator_dp_node18
    port map (A0_pipe => A0_pipe, t39_out => t39);
  u_node19 : entity work.bit_correlator_dp_node19
    port map (cnt_12 => cnt_12, t40_out => t40);
  u_mux_bb21 : entity work.bit_correlator_dp_mux_bb21
    port map (clk => clk, ce => ce, cnt_12_pipe => cnt_12_pipe, t40 => t40, n77_pipe_s3 => n77_pipe_s3, cnt_14_out => cnt_14, cnt_14_s4_out => cnt_14_s4);
  u_node21 : entity work.bit_correlator_dp_node21
    port map (A0_pipe => A0_pipe, t45_out => t45);
  u_node22 : entity work.bit_correlator_dp_node22
    port map (cnt_14_s4 => cnt_14_s4, t46_out => t46);
  u_mux_bb24 : entity work.bit_correlator_dp_mux_bb24
    port map (t46 => t46, pipe_s4 => pipe_s4, cnt_14_pipe_s4 => cnt_14_pipe_s4, cnt_16_out => cnt_16);
  u_node24 : entity work.bit_correlator_dp_node24
    port map (cnt_16 => cnt_16, t48_out => t48);
  u_pipe_bb3 : entity work.bit_correlator_dp_pipe_bb3
    port map (A0 => A0, t5 => t5, A0_pipe_out => A0_pipe, n34_pipe_out => n34_pipe);
  u_pipe_bb6 : entity work.bit_correlator_dp_pipe_bb6
    port map (clk => clk, ce => ce, t9 => t9, cnt_2 => cnt_2, n45_pipe_s1_out => n45_pipe_s1, cnt_2_pipe_s1_out => cnt_2_pipe_s1);
  u_pipe_bb9 : entity work.bit_correlator_dp_pipe_bb9
    port map (clk => clk, ce => ce, t15 => t15, cnt_4 => cnt_4, cnt_4_pipe_out => cnt_4_pipe, n51_pipe_s1_out => n51_pipe_s1);
  u_pipe_bb12 : entity work.bit_correlator_dp_pipe_bb12
    port map (clk => clk, ce => ce, t21 => t21, cnt_6 => cnt_6, n56_pipe_s2_out => n56_pipe_s2, cnt_6_pipe_s2_out => cnt_6_pipe_s2);
  u_pipe_bb15 : entity work.bit_correlator_dp_pipe_bb15
    port map (clk => clk, ce => ce, t27 => t27, cnt_8 => cnt_8, cnt_8_pipe_out => cnt_8_pipe, n63_pipe_s2_out => n63_pipe_s2);
  u_pipe_bb18 : entity work.bit_correlator_dp_pipe_bb18
    port map (clk => clk, ce => ce, t33 => t33, cnt_10 => cnt_10, n69_pipe_s3_out => n69_pipe_s3, cnt_10_pipe_s3_out => cnt_10_pipe_s3);
  u_pipe_bb21 : entity work.bit_correlator_dp_pipe_bb21
    port map (clk => clk, ce => ce, t39 => t39, cnt_12 => cnt_12, cnt_12_pipe_out => cnt_12_pipe, n77_pipe_s3_out => n77_pipe_s3);
  u_pipe_bb24 : entity work.bit_correlator_dp_pipe_bb24
    port map (clk => clk, ce => ce, t45 => t45, cnt_14 => cnt_14, pipe_s4_out => pipe_s4, cnt_14_pipe_s4_out => cnt_14_pipe_s4);
  C_o0 <= t48;
end architecture rtl;
